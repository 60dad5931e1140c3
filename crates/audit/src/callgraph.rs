//! An approximate, workspace-wide call graph over the symbol table.
//!
//! Edges come from two token shapes inside function bodies — `name(…)`
//! free/associated calls and `.name(…)` method calls — resolved by bare
//! name against every same-named function in the workspace (see
//! [`crate::symbols`] for why that over-approximation is the sound
//! direction). Macro invocations (`name!(…)`) are *not* calls; tokens
//! belonging to a nested `fn` are attributed to the nested function only.
//!
//! The graph answers one kind of question for the rules: *which functions
//! can an attack-side entry point reach without crossing the metered
//! surface?* ([`CallGraph::reachable`] takes a blocklist predicate for
//! exactly that).

use std::collections::BTreeMap;

use crate::lexer::{Tok, TokKind};
use crate::symbols::{FnRef, Workspace};

/// Splits the argument list of a call whose `(` sits at `open` into
/// top-level token ranges (exclusive). Comma splitting tracks
/// paren/bracket/brace *and* angle depth, so `f(Map::<u32, u64>::new())`
/// stays one argument. Returns an empty list when `open` is not a `(`.
pub fn call_args(toks: &[Tok], open: usize) -> Vec<(usize, usize)> {
    if !toks.get(open).is_some_and(|t| t.is_punct('(')) {
        return Vec::new();
    }
    let mut close = open;
    let mut depth = 0isize;
    while close < toks.len() {
        if toks[close].is_punct('(') {
            depth += 1;
        } else if toks[close].is_punct(')') {
            depth -= 1;
            if depth == 0 {
                break;
            }
        }
        close += 1;
    }
    let close = close.min(toks.len());
    let mut args = Vec::new();
    let mut seg = open + 1;
    let mut d = 0isize;
    let mut angle = 0isize;
    let mut j = open + 1;
    while j <= close && j < toks.len() {
        let boundary = j == close || (d == 0 && angle <= 0 && toks[j].is_punct(','));
        if boundary {
            if j > seg {
                args.push((seg, j));
            }
            seg = j + 1;
        } else {
            match &toks[j].kind {
                TokKind::Punct('(') | TokKind::Punct('[') | TokKind::Punct('{') => d += 1,
                TokKind::Punct(')') | TokKind::Punct(']') | TokKind::Punct('}') => d -= 1,
                TokKind::Punct('<') => angle += 1,
                TokKind::Punct('>') if !(j > 0 && toks[j - 1].is_punct('-')) => angle -= 1,
                _ => {}
            }
        }
        j += 1;
    }
    args
}

/// One call site inside a function body.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CallSite {
    /// Dense id (into [`Workspace::all_fns`]) of the calling function.
    pub caller: usize,
    /// The called name (bare identifier).
    pub name: String,
    /// 1-based line of the call.
    pub line: u32,
    /// Token index of the name in the caller's file.
    pub tok: usize,
}

/// The call graph: adjacency over dense function ids plus the raw sites.
#[derive(Clone, Debug, Default)]
pub struct CallGraph {
    /// `calls[f]` = sorted, deduped callee ids of function `f`.
    pub calls: Vec<Vec<usize>>,
    /// Every call site, in (file, token) order.
    pub sites: Vec<CallSite>,
}

/// Keywords and builtins that look like `name(…)` but are never calls.
const NON_CALL_IDENTS: [&str; 14] = [
    "if", "while", "match", "for", "loop", "return", "in", "as", "move", "fn", "let", "else",
    "impl", "where",
];

impl CallGraph {
    /// Builds the graph for a workspace.
    pub fn build(ws: &Workspace) -> CallGraph {
        let n = ws.all_fns.len();
        let mut calls: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut sites = Vec::new();

        // Map FnRef → dense id once (BTreeMap keeps it deterministic).
        let ids: BTreeMap<FnRef, usize> =
            ws.all_fns.iter().enumerate().map(|(i, &r)| (r, i)).collect();

        for (fid, &fref) in ws.all_fns.iter().enumerate() {
            let file = ws.file(fref);
            let Some((lo, hi)) = ws.item(fref).body else { continue };
            let nested = file.nested_fn_bodies(fref.item);
            let mut i = lo;
            while i < hi {
                // Skip tokens that belong to a nested fn (they get their
                // own node; double-attribution would blur reachability).
                if let Some(&(_, nend)) =
                    nested.iter().find(|&&(ns, ne)| ns <= i && i < ne.max(ns + 1))
                {
                    i = nend.max(i + 1);
                    continue;
                }
                let t = &file.toks[i];
                if let TokKind::Ident(name) = &t.kind {
                    let next_is_paren = file.toks.get(i + 1).is_some_and(|t| t.is_punct('('));
                    let next_is_bang = file.toks.get(i + 1).is_some_and(|t| t.is_punct('!'));
                    if next_is_paren && !next_is_bang && !NON_CALL_IDENTS.contains(&name.as_str()) {
                        sites.push(CallSite {
                            caller: fid,
                            name: name.clone(),
                            line: t.line,
                            tok: i,
                        });
                        if let Some(defs) = ws.fns_by_name.get(name) {
                            for &callee_ref in defs {
                                if let Some(&cid) = ids.get(&callee_ref) {
                                    calls[fid].push(cid);
                                }
                            }
                        }
                    }
                }
                i += 1;
            }
        }
        for v in &mut calls {
            v.sort_unstable();
            v.dedup();
        }
        CallGraph { calls, sites }
    }

    /// Forward reachability: every function reachable from `seeds` along
    /// call edges, **without expanding** nodes where `blocked` holds
    /// (blocked nodes are not marked and their callees are not visited
    /// through them). Blocked seeds are skipped entirely.
    pub fn reachable(&self, seeds: &[usize], blocked: impl Fn(usize) -> bool) -> Vec<bool> {
        let mut seen = vec![false; self.calls.len()];
        let mut queue: Vec<usize> = Vec::new();
        for &s in seeds {
            if s < seen.len() && !seen[s] && !blocked(s) {
                seen[s] = true;
                queue.push(s);
            }
        }
        while let Some(f) = queue.pop() {
            for &g in &self.calls[f] {
                if !seen[g] && !blocked(g) {
                    seen[g] = true;
                    queue.push(g);
                }
            }
        }
        seen
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_source;
    use crate::symbols::Workspace;

    fn ws2(a: &str, b: &str) -> (Workspace, CallGraph) {
        let ws = Workspace::new(vec![parse_source("a.rs", a), parse_source("b.rs", b)]);
        let g = CallGraph::build(&ws);
        (ws, g)
    }

    fn id_of(ws: &Workspace, name: &str) -> usize {
        let r = ws.fns_by_name[name][0];
        ws.fn_id(r).unwrap()
    }

    #[test]
    fn cross_file_edges_resolve_by_name() {
        let (ws, g) = ws2("fn entry() { helper(); }", "fn helper() { leaf(); } fn leaf() {}");
        let (e, h, l) = (id_of(&ws, "entry"), id_of(&ws, "helper"), id_of(&ws, "leaf"));
        assert_eq!(g.calls[e], vec![h]);
        assert_eq!(g.calls[h], vec![l]);
        let seen = g.reachable(&[e], |_| false);
        assert!(seen[e] && seen[h] && seen[l]);
    }

    #[test]
    fn blocked_nodes_stop_traversal() {
        let (ws, g) = ws2("fn entry() { surface(); }", "fn surface() { secret(); } fn secret() {}");
        let (e, s, sec) = (id_of(&ws, "entry"), id_of(&ws, "surface"), id_of(&ws, "secret"));
        let seen = g.reachable(&[e], |f| f == s);
        assert!(seen[e]);
        assert!(!seen[s], "blocked node is not marked");
        assert!(!seen[sec], "nothing behind the block is reached");
    }

    #[test]
    fn macros_and_keywords_are_not_calls() {
        let (_, g) = ws2("fn f() { println!(\"x\"); if (true) { return (3); } }", "fn g() {}");
        assert!(g
            .sites
            .iter()
            .all(|s| s.name != "println" && s.name != "if" && s.name != "return"));
    }

    #[test]
    fn call_args_split_at_top_level_commas_only() {
        let (toks, _) = crate::lexer::lex("f(a, g(b, c), Map::<u32, u64>::new(), 42)");
        let open = toks.iter().position(|t| t.is_punct('(')).unwrap();
        let args = call_args(&toks, open);
        assert_eq!(args.len(), 4);
        let first = &toks[args[0].0..args[0].1];
        assert!(first.len() == 1 && first[0].is_ident("a"));
        let last = &toks[args[3].0..args[3].1];
        assert!(last.len() == 1 && last[0].is_number());
    }

    #[test]
    fn method_calls_are_sites_and_nested_fns_claim_their_tokens() {
        let (ws, g) = ws2("fn outer() { fn inner() { deep(); } x.poke(); }", "fn deep() {}");
        let outer = id_of(&ws, "outer");
        let inner = id_of(&ws, "inner");
        let deep = id_of(&ws, "deep");
        assert!(g.calls[inner].contains(&deep));
        assert!(!g.calls[outer].contains(&deep), "inner's calls must not leak to outer");
        let poke = g.sites.iter().find(|s| s.name == "poke").unwrap();
        assert_eq!(poke.caller, outer);
    }
}
