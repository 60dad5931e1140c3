//! The workspace symbol table: every parsed file and every named function.
//!
//! Resolution is **name-approximate**: a call `foo(…)` or `.foo(…)`
//! resolves to *every* function named `foo` anywhere in the workspace,
//! with no type information. That over-approximation is the right
//! direction for the cross-file rules built on top — reachability
//! queries stay sound (“may reach” never misses a real path), at the
//! cost of occasionally connecting same-named strangers. `DESIGN.md` §16
//! spells out the caveats.

use std::collections::BTreeMap;

use crate::parser::{Item, ItemKind, ParsedFile};

/// A function identified by file index and item index.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct FnRef {
    /// Index into [`Workspace::files`].
    pub file: usize,
    /// Index into that file's `items`.
    pub item: usize,
}

/// All parsed files plus the cross-file name indexes.
#[derive(Clone, Debug, Default)]
pub struct Workspace {
    /// Parsed files, **sorted by path** (the determinism anchor: every
    /// id, index, and report order derives from this ordering).
    pub files: Vec<ParsedFile>,
    /// Function definitions by bare name.
    pub fns_by_name: BTreeMap<String, Vec<FnRef>>,
    /// Every function, in (file, item) order; the dense id space the call
    /// graph indexes by.
    pub all_fns: Vec<FnRef>,
}

impl Workspace {
    /// Builds the table from parsed files. `files` must already be sorted
    /// by path; the constructor asserts it (debug builds) rather than
    /// re-sorting, so callers stay conscious of the ordering contract.
    pub fn new(files: Vec<ParsedFile>) -> Self {
        debug_assert!(
            files.windows(2).all(|w| w[0].path <= w[1].path),
            "files must be path-sorted"
        );
        let mut ws = Workspace { files, ..Default::default() };
        for (fi, file) in ws.files.iter().enumerate() {
            for (ii, item) in file.items.iter().enumerate() {
                if item.kind == ItemKind::Fn {
                    let r = FnRef { file: fi, item: ii };
                    ws.all_fns.push(r);
                    ws.fns_by_name.entry(item.name.clone()).or_default().push(r);
                }
            }
        }
        ws
    }

    /// The item behind a [`FnRef`].
    pub fn item(&self, r: FnRef) -> &Item {
        &self.files[r.file].items[r.item]
    }

    /// The file behind a [`FnRef`].
    pub fn file(&self, r: FnRef) -> &ParsedFile {
        &self.files[r.file]
    }

    /// Dense id of a [`FnRef`] in [`Workspace::all_fns`] (binary search —
    /// `all_fns` is sorted by construction).
    pub fn fn_id(&self, r: FnRef) -> Option<usize> {
        self.all_fns.binary_search(&r).ok()
    }

    /// Whether a function is test code: marked/inherited `#[test]` /
    /// `#[cfg(test)]`, or defined in a file under a `tests/` directory.
    pub fn is_test_fn(&self, r: FnRef) -> bool {
        self.item(r).is_test || path_is_test(&self.file(r).path)
    }
}

/// Whether a workspace-relative path is test-tree source.
pub fn path_is_test(path: &str) -> bool {
    path.starts_with("tests/") || path.contains("/tests/")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_source;

    #[test]
    fn fns_index_by_bare_name_across_files() {
        let a = parse_source("a.rs", "fn shared() {} fn only_a() {}");
        let b = parse_source("b.rs", "fn shared() {}");
        let ws = Workspace::new(vec![a, b]);
        assert_eq!(ws.fns_by_name["shared"].len(), 2);
        assert_eq!(ws.fns_by_name["only_a"].len(), 1);
        assert_eq!(ws.all_fns.len(), 3);
        for &r in &ws.all_fns {
            assert_eq!(ws.fn_id(r).map(|id| ws.all_fns[id]), Some(r));
        }
    }

    #[test]
    fn tests_tree_paths_count_as_test_code() {
        assert!(path_is_test("tests/chaos.rs"));
        assert!(path_is_test("crates/mf/tests/proptests.rs"));
        assert!(!path_is_test("crates/mf/src/model.rs"));
    }
}
