//! Graphviz DOT export for DTMCs.
//!
//! The paper presents its path models as transition diagrams (Figs. 4 and 5);
//! this module renders any [`Dtmc`] in the same style so the reproduced
//! chains can be inspected visually with `dot -Tsvg`.

use crate::chain::Dtmc;
use std::fmt::Write as _;

/// Rendering options for [`to_dot`].
#[derive(Debug, Clone)]
pub struct DotOptions {
    /// Graph name placed after `digraph`.
    pub graph_name: String,
    /// Lay the graph out left-to-right (the paper's time-line orientation).
    pub left_to_right: bool,
    /// Number of significant digits for edge probabilities.
    pub precision: usize,
    /// Highlight absorbing states with a double circle.
    pub mark_absorbing: bool,
}

impl Default for DotOptions {
    fn default() -> Self {
        DotOptions {
            graph_name: "dtmc".to_string(),
            left_to_right: true,
            precision: 4,
            mark_absorbing: true,
        }
    }
}

/// Renders a chain as a Graphviz `digraph`.
///
/// State labels become node labels; edges carry their probability. With the
/// default options absorbing states are drawn as double circles, matching
/// the goal/discard states of the paper's figures.
pub fn to_dot(chain: &Dtmc, options: &DotOptions) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "digraph {} {{", sanitize(&options.graph_name));
    if options.left_to_right {
        out.push_str("  rankdir=LR;\n");
    }
    out.push_str("  node [shape=circle];\n");
    for state in chain.states() {
        let shape = if options.mark_absorbing && chain.is_absorbing(state) {
            " shape=doublecircle"
        } else {
            ""
        };
        let _ = writeln!(
            out,
            "  {} [label=\"{}\"{}];",
            state,
            escape(chain.label(state)),
            shape
        );
    }
    for state in chain.states() {
        for (to, p) in chain.successors(state) {
            if chain.is_absorbing(state) && to == state {
                continue; // omit the implicit self-loop of absorbing states
            }
            let _ = writeln!(
                out,
                "  {} -> {} [label=\"{:.prec$}\"];",
                state,
                to,
                p,
                prec = options.precision
            );
        }
    }
    out.push_str("}\n");
    out
}

fn sanitize(name: &str) -> String {
    let cleaned: String = name
        .chars()
        .map(|c| {
            if c.is_alphanumeric() || c == '_' {
                c
            } else {
                '_'
            }
        })
        .collect();
    if cleaned.is_empty() || cleaned.chars().next().is_some_and(|c| c.is_ascii_digit()) {
        format!("g_{cleaned}")
    } else {
        cleaned
    }
}

fn escape(label: &str) -> String {
    label.replace('\\', "\\\\").replace('"', "\\\"")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_chain() -> Dtmc {
        let mut b = Dtmc::builder();
        let a = b.add_state("(1,-,-)");
        let goal = b.add_state("R7");
        b.add_transition(a, goal, 1.0).unwrap();
        b.make_absorbing(goal).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn dot_contains_states_and_edges() {
        let dot = to_dot(&sample_chain(), &DotOptions::default());
        assert!(dot.starts_with("digraph dtmc {"));
        assert!(dot.contains("rankdir=LR"));
        assert!(dot.contains("label=\"(1,-,-)\""));
        assert!(dot.contains("label=\"R7\" shape=doublecircle"));
        assert!(dot.contains("s0 -> s1 [label=\"1.0000\"]"));
        assert!(dot.ends_with("}\n"));
    }

    #[test]
    fn absorbing_self_loops_are_omitted() {
        let dot = to_dot(&sample_chain(), &DotOptions::default());
        assert!(!dot.contains("s1 -> s1"));
    }

    #[test]
    fn quotes_in_labels_are_escaped() {
        let mut b = Dtmc::builder();
        let s = b.add_state("say \"hi\"");
        b.make_absorbing(s).unwrap();
        let dot = to_dot(&b.build().unwrap(), &DotOptions::default());
        assert!(dot.contains("say \\\"hi\\\""));
    }

    #[test]
    fn graph_names_are_sanitized() {
        let options = DotOptions {
            graph_name: "3-hop path!".into(),
            ..DotOptions::default()
        };
        let dot = to_dot(&sample_chain(), &options);
        assert!(dot.starts_with("digraph g_3_hop_path_ {"));
    }

    #[test]
    fn precision_is_respected() {
        let options = DotOptions {
            precision: 2,
            ..DotOptions::default()
        };
        let dot = to_dot(&sample_chain(), &options);
        assert!(dot.contains("label=\"1.00\""));
    }
}
