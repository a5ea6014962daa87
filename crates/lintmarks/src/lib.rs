//! Inert marker attributes for the repo's static-analysis layer.
//!
//! `cargo xtask lint` is a *textual* pass — it scans source files, not the
//! compiled crate — so markers like `#[lint(hot_path)]` only need to (a)
//! compile away to nothing and (b) be greppable at the annotation site.
//! This crate provides (a): a pass-through attribute proc-macro. The lint
//! rules that give the markers meaning live in `crates/xtask/src/lint.rs`.

use proc_macro::TokenStream;

/// Pass-through marker attribute: `#[lint(hot_path)]` tags a function as
/// data-plane trace-emission code, which `cargo xtask lint` then forbids
/// from calling `format!` or performing heap allocation. Expands to the
/// annotated item unchanged; the argument is ignored at compile time.
#[proc_macro_attribute]
pub fn lint(_attr: TokenStream, item: TokenStream) -> TokenStream {
    item
}
