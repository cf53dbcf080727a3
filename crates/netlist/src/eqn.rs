//! Textual netlist formats: the line-based `.eqn` interchange format (with
//! a parser, so emitted circuits can be read back and compared) and a
//! structural Verilog writer.
//!
//! The `.eqn` grammar is deliberately small:
//!
//! ```text
//! # comment
//! .model <name>
//! .inputs <name> ...
//! .outputs <name> ...
//! <out> = <lit> & <lit> + <lit>;          # complex gate (sum of products)
//! <out> = C(<sop> ; <sop>);               # C-element:  C(set ; reset)
//! .end
//! ```
//!
//! A literal is `<name>` or `!<name>`; the empty cover prints as `0` and
//! the universal cover as `1`.

use crate::{Gate, GateKind, Netlist};
use logic::{Cover, Cube, Literal};
use std::fmt;
use stg::SignalId;

impl Netlist {
    /// Renders the netlist in the `.eqn` format; [`parse_eqn`] reads the
    /// result back losslessly (up to variable numbering, which the parser
    /// rebuilds from the declaration order).
    pub fn to_eqn(&self) -> String {
        let mut out = String::new();
        out.push_str("# generalized C-elements are written q = C(set ; reset)\n");
        out.push_str(&format!(".model {}\n", self.name));
        let input_names: Vec<&str> =
            self.inputs.iter().map(|&i| self.signal_names[i].as_str()).collect();
        out.push_str(&format!(".inputs {}\n", input_names.join(" ")));
        let output_names: Vec<&str> = self.gates.iter().map(|g| g.name.as_str()).collect();
        out.push_str(&format!(".outputs {}\n", output_names.join(" ")));
        for gate in &self.gates {
            match &gate.kind {
                GateKind::Complex { cover } => {
                    out.push_str(&format!("{} = {};\n", gate.name, self.render_sop(cover)));
                }
                GateKind::CElement { set, reset } => {
                    out.push_str(&format!(
                        "{} = C({} ; {});\n",
                        gate.name,
                        self.render_sop(set),
                        self.render_sop(reset)
                    ));
                }
            }
        }
        out.push_str(".end\n");
        out
    }

    /// Renders a cover as a sum of products over the netlist's signal names.
    fn render_sop(&self, cover: &Cover) -> String {
        if cover.is_empty() {
            return "0".to_owned();
        }
        let products: Vec<String> = cover
            .cubes()
            .iter()
            .map(|cube| {
                let lits: Vec<String> = (0..cube.num_vars())
                    .filter_map(|i| match cube.literal(i) {
                        Literal::One => Some(self.signal_names[i].clone()),
                        Literal::Zero => Some(format!("!{}", self.signal_names[i])),
                        Literal::DontCare => None,
                    })
                    .collect();
                if lits.is_empty() {
                    "1".to_owned()
                } else {
                    lits.join(" & ")
                }
            })
            .collect();
        products.join(" + ")
    }

    /// Renders the netlist as structural Verilog: one continuous assignment
    /// per complex gate, one `gc_element` instance (set/reset/q) per
    /// generalized C-element, and — when any C-element exists — the
    /// behavioural `gc_element` primitive module appended after the design.
    pub fn to_verilog(&self) -> String {
        let id = |name: &str| sanitize_identifier(name);
        let mut out = String::new();
        out.push_str(&format!("// {}: synthesized speed-independent control circuit\n", self.name));
        let mut ports: Vec<String> = self
            .inputs
            .iter()
            .map(|&i| format!("input wire {}", id(&self.signal_names[i])))
            .collect();
        ports.extend(self.gates.iter().map(|g| format!("output wire {}", id(&g.name))));
        out.push_str(&format!("module {} (\n  {}\n);\n", id(&self.name), ports.join(",\n  ")));
        for gate in &self.gates {
            match &gate.kind {
                GateKind::Complex { cover } => {
                    out.push_str(&format!(
                        "  assign {} = {};\n",
                        id(&gate.name),
                        self.render_verilog_sop(cover)
                    ));
                }
                GateKind::CElement { set, reset } => {
                    let g = id(&gate.name);
                    out.push_str(&format!("  wire {g}_set = {};\n", self.render_verilog_sop(set)));
                    out.push_str(&format!(
                        "  wire {g}_reset = {};\n",
                        self.render_verilog_sop(reset)
                    ));
                    out.push_str(&format!(
                        "  gc_element u_{g} (.set({g}_set), .reset({g}_reset), .q({g}));\n"
                    ));
                }
            }
        }
        out.push_str("endmodule\n");
        if self.c_elements() > 0 {
            out.push_str(
                "\n// Generalized C-element: set wins over hold, reset over set being idle.\n\
                 module gc_element (\n  input wire set,\n  input wire reset,\n  output reg q\n);\n\
                 \x20 initial q = 1'b0;\n\
                 \x20 always @(set or reset) begin\n\
                 \x20   if (set) q = 1'b1;\n\
                 \x20   else if (reset) q = 1'b0;\n\
                 \x20 end\nendmodule\n",
            );
        }
        out
    }

    /// Renders a cover with Verilog operators (`~`, `&`, `|`).
    fn render_verilog_sop(&self, cover: &Cover) -> String {
        if cover.is_empty() {
            return "1'b0".to_owned();
        }
        let products: Vec<String> = cover
            .cubes()
            .iter()
            .map(|cube| {
                let lits: Vec<String> = (0..cube.num_vars())
                    .filter_map(|i| match cube.literal(i) {
                        Literal::One => Some(sanitize_identifier(&self.signal_names[i])),
                        Literal::Zero => {
                            Some(format!("~{}", sanitize_identifier(&self.signal_names[i])))
                        }
                        Literal::DontCare => None,
                    })
                    .collect();
                if lits.is_empty() {
                    "1'b1".to_owned()
                } else {
                    format!("({})", lits.join(" & "))
                }
            })
            .collect();
        products.join(" | ")
    }
}

/// Maps a signal name onto a legal Verilog identifier: every character
/// outside `[A-Za-z0-9_]` becomes `_`, and a leading digit gains a `_`
/// prefix.
fn sanitize_identifier(name: &str) -> String {
    let mut out: String =
        name.chars().map(|c| if c.is_ascii_alphanumeric() || c == '_' { c } else { '_' }).collect();
    if out.chars().next().is_some_and(|c| c.is_ascii_digit()) {
        out.insert(0, '_');
    }
    if out.is_empty() {
        out.push('_');
    }
    out
}

/// A typed `.eqn` parse failure, carrying the offending line number.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EqnParseError {
    /// 1-based line of the failure.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for EqnParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "eqn parse error at line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for EqnParseError {}

/// Parses a `.eqn` netlist (the format [`Netlist::to_eqn`] emits).
///
/// Variables are numbered in declaration order — inputs first, then
/// outputs — which generally differs from the source netlist's numbering;
/// [`crate::equivalent`] compares covers by *name* and is therefore the
/// round-trip oracle.
///
/// # Errors
///
/// [`EqnParseError`] with the line and cause on any malformed input; the
/// parser never panics.
pub fn parse_eqn(text: &str) -> Result<Netlist, EqnParseError> {
    let mut name: Option<String> = None;
    let mut input_names: Vec<String> = Vec::new();
    let mut output_names: Vec<String> = Vec::new();
    let mut gate_lines: Vec<(usize, String)> = Vec::new();
    let mut ended = false;
    for (index, raw) in text.lines().enumerate() {
        let line_no = index + 1;
        let line = raw.trim();
        let fail = |message: &str| EqnParseError { line: line_no, message: message.to_owned() };
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if ended {
            return Err(fail("text after .end"));
        }
        if let Some(rest) = line.strip_prefix(".model") {
            name = Some(rest.trim().to_owned());
        } else if let Some(rest) = line.strip_prefix(".inputs") {
            input_names.extend(rest.split_whitespace().map(str::to_owned));
        } else if let Some(rest) = line.strip_prefix(".outputs") {
            output_names.extend(rest.split_whitespace().map(str::to_owned));
        } else if line == ".end" {
            ended = true;
        } else if line.starts_with('.') {
            return Err(fail("unknown directive"));
        } else {
            gate_lines.push((line_no, line.to_owned()));
        }
    }
    if !ended {
        return Err(EqnParseError { line: text.lines().count(), message: "missing .end".into() });
    }
    let name = name.ok_or(EqnParseError { line: 1, message: "missing .model".into() })?;

    let mut signal_names = input_names.clone();
    signal_names.extend(output_names.iter().cloned());
    let num_variables = signal_names.len();
    let var_of = |token: &str| signal_names.iter().position(|n| n == token);

    let mut gates = Vec::with_capacity(gate_lines.len());
    for (line_no, line) in gate_lines {
        let fail = |message: String| EqnParseError { line: line_no, message };
        let Some(body) = line.strip_suffix(';') else {
            return Err(fail("gate equation must end with ';'".into()));
        };
        let Some((lhs, rhs)) = body.split_once('=') else {
            return Err(fail("gate equation must contain '='".into()));
        };
        let out_name = lhs.trim();
        let Some(out_var) = var_of(out_name) else {
            return Err(fail(format!("undeclared output '{out_name}'")));
        };
        let rhs = rhs.trim();
        let kind = if let Some(inner) = rhs.strip_prefix("C(").and_then(|r| r.strip_suffix(')')) {
            let Some((set_text, reset_text)) = inner.split_once(';') else {
                return Err(fail("C-element needs 'C(set ; reset)'".into()));
            };
            GateKind::CElement {
                set: parse_sop(set_text, num_variables, &var_of)
                    .map_err(|m| fail(format!("set cover: {m}")))?,
                reset: parse_sop(reset_text, num_variables, &var_of)
                    .map_err(|m| fail(format!("reset cover: {m}")))?,
            }
        } else {
            GateKind::Complex { cover: parse_sop(rhs, num_variables, &var_of).map_err(fail)? }
        };
        gates.push(Gate { signal: SignalId::from(out_var), name: out_name.to_owned(), kind });
    }
    let inputs = (0..input_names.len()).collect();
    Ok(Netlist { name, signal_names, inputs, gates, num_variables })
}

/// Parses a sum-of-products expression onto a [`Cover`].
fn parse_sop(
    text: &str,
    num_variables: usize,
    var_of: &dyn Fn(&str) -> Option<usize>,
) -> Result<Cover, String> {
    let text = text.trim();
    if text == "0" {
        return Ok(Cover::empty());
    }
    let mut cover = Cover::empty();
    for product in text.split('+') {
        let product = product.trim();
        if product == "1" {
            cover.push(Cube::universe(num_variables));
            continue;
        }
        let mut literals: Vec<(usize, bool)> = Vec::new();
        for token in product.split('&') {
            let token = token.trim();
            let (name, value) = match token.strip_prefix('!') {
                Some(rest) => (rest.trim(), false),
                None => (token, true),
            };
            if name.is_empty() {
                return Err("empty literal".to_owned());
            }
            let Some(var) = var_of(name) else {
                return Err(format!("undeclared signal '{name}'"));
            };
            if literals.iter().any(|&(v, b)| v == var && b != value) {
                return Err(format!("contradictory literals on '{name}'"));
            }
            literals.push((var, value));
        }
        cover.push(Cube::from_literals(num_variables, &literals));
    }
    Ok(cover)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::functions_of;
    use crate::{equivalent, synthesize};

    fn vme_netlist() -> Netlist {
        let solution =
            csc::solve_stg_symbolic(&stg::benchmarks::vme_read(), &csc::SolverConfig::default())
                .unwrap();
        let functions = functions_of(&solution.stg);
        synthesize(&solution.stg, &functions).unwrap()
    }

    #[test]
    fn eqn_round_trips_through_the_parser() {
        let net = vme_netlist();
        let text = net.to_eqn();
        assert!(text.contains(".model"), "{text}");
        assert!(text.contains(".end"), "{text}");
        let parsed = parse_eqn(&text).unwrap();
        assert_eq!(parsed.name, net.name);
        assert_eq!(parsed.gates.len(), net.gates.len());
        assert!(equivalent(&net, &parsed).unwrap(), "parsed covers must match the source");
    }

    #[test]
    fn verilog_contains_every_gate_and_the_primitive() {
        let net = vme_netlist();
        let text = net.to_verilog();
        assert!(text.contains("module"), "{text}");
        for gate in &net.gates {
            assert!(text.contains(&gate.name), "missing {}", gate.name);
        }
        if net.c_elements() > 0 {
            assert!(text.contains("module gc_element"), "{text}");
        }
    }

    #[test]
    fn malformed_eqn_text_yields_typed_errors() {
        for (text, needle) in [
            ("garbage", "missing .end"),
            (".model x\n.end\nmore", "after .end"),
            (".model x\n.inputs a\n.outputs b\nb = a\n.end", "';'"),
            (".model x\n.inputs a\n.outputs b\nb = c;\n.end", "undeclared"),
            (".model x\n.inputs a\n.outputs b\nc = a;\n.end", "undeclared output"),
            (".model x\n.inputs a\n.outputs b\nb = C(a);\n.end", "C(set ; reset)"),
            (".model x\n.inputs a\n.outputs b\nb = a & !a;\n.end", "contradictory"),
            (".model x\n.frob\n.end", "unknown directive"),
            (".inputs a\n.end", "missing .model"),
        ] {
            let err = parse_eqn(text).unwrap_err();
            assert!(err.to_string().contains(needle), "{text:?}: {err}");
        }
    }

    #[test]
    fn constant_covers_render_and_parse() {
        let text = ".model consts\n.inputs a\n.outputs z y\nz = 0;\ny = 1;\n.end\n";
        let net = parse_eqn(text).unwrap();
        let z = net.gate_of("z").unwrap();
        let y = net.gate_of("y").unwrap();
        let GateKind::Complex { cover } = &z.kind else { panic!("complex") };
        assert!(cover.is_empty());
        let GateKind::Complex { cover } = &y.kind else { panic!("complex") };
        assert_eq!(cover.len(), 1);
        assert_eq!(cover.literal_count(), 0);
        // And the renderer emits the same constants back.
        let emitted = net.to_eqn();
        assert!(emitted.contains("z = 0;"), "{emitted}");
        assert!(emitted.contains("y = 1;"), "{emitted}");
    }

    #[test]
    fn identifier_sanitizer_handles_awkward_names() {
        assert_eq!(sanitize_identifier("req"), "req");
        assert_eq!(sanitize_identifier("d[0]"), "d_0_");
        assert_eq!(sanitize_identifier("2phase"), "_2phase");
        assert_eq!(sanitize_identifier(""), "_");
    }
}
