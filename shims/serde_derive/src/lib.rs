//! Hand-rolled `#[derive(Serialize)]` for the vendored serde shim. No
//! `syn`/`quote` (the build is offline), so the item is parsed directly
//! from the token stream. Supported shapes cover everything this
//! workspace derives: non-generic structs with named fields, tuple
//! structs, and enums (unit variants serialize as their name; payload
//! variants are matched with `..` and serialize as the variant name
//! only).

use proc_macro::{Delimiter, TokenStream, TokenTree};

#[proc_macro_derive(Serialize)]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let item = parse_item(input);
    let code = match item.shape {
        Shape::NamedStruct(fields) => {
            let entries: Vec<String> = fields
                .iter()
                .map(|f| {
                    format!(
                        "(::std::string::String::from({f:?}), ::serde::Serialize::to_value(&self.{f}))"
                    )
                })
                .collect();
            format!(
                "impl ::serde::Serialize for {} {{\n\
                     fn to_value(&self) -> ::serde::Value {{\n\
                         ::serde::Value::Object(::std::vec![{}])\n\
                     }}\n\
                 }}",
                item.name,
                entries.join(", ")
            )
        }
        Shape::TupleStruct(arity) => {
            let entries: Vec<String> = (0..arity)
                .map(|i| format!("::serde::Serialize::to_value(&self.{i})"))
                .collect();
            format!(
                "impl ::serde::Serialize for {} {{\n\
                     fn to_value(&self) -> ::serde::Value {{\n\
                         ::serde::Value::Array(::std::vec![{}])\n\
                     }}\n\
                 }}",
                item.name,
                entries.join(", ")
            )
        }
        Shape::Enum(variants) => {
            let arms: Vec<String> = variants
                .iter()
                .map(|v| {
                    let pat = match v.payload {
                        Payload::Unit => String::new(),
                        Payload::Tuple => "(..)".to_string(),
                        Payload::Struct => "{..}".to_string(),
                    };
                    format!(
                        "{}::{}{} => ::serde::Value::Str(::std::string::String::from({:?})),",
                        item.name, v.name, pat, v.name
                    )
                })
                .collect();
            format!(
                "impl ::serde::Serialize for {} {{\n\
                     fn to_value(&self) -> ::serde::Value {{\n\
                         match self {{ {} }}\n\
                     }}\n\
                 }}",
                item.name,
                arms.join("\n")
            )
        }
    };
    code.parse()
        .expect("serde_derive shim generated invalid Rust")
}

enum Shape {
    NamedStruct(Vec<String>),
    TupleStruct(usize),
    Enum(Vec<Variant>),
}

enum Payload {
    Unit,
    Tuple,
    Struct,
}

struct Variant {
    name: String,
    payload: Payload,
}

struct Item {
    name: String,
    shape: Shape,
}

fn parse_item(input: TokenStream) -> Item {
    let mut toks = input.into_iter().peekable();
    let mut kind: Option<String> = None;
    let mut name: Option<String> = None;

    while let Some(tok) = toks.next() {
        match &tok {
            // Attribute: `#` (optionally `!`) followed by a bracket group.
            TokenTree::Punct(p) if p.as_char() == '#' => {
                if let Some(TokenTree::Punct(q)) = toks.peek() {
                    if q.as_char() == '!' {
                        toks.next();
                    }
                }
                toks.next(); // the [...] group
            }
            TokenTree::Ident(id) if *id.to_string() == *"pub" => {
                if let Some(TokenTree::Group(g)) = toks.peek() {
                    if g.delimiter() == Delimiter::Parenthesis {
                        toks.next(); // pub(crate) etc.
                    }
                }
            }
            TokenTree::Ident(id) => {
                let s = id.to_string();
                if s == "struct" || s == "enum" {
                    kind = Some(s);
                    if let Some(TokenTree::Ident(n)) = toks.next() {
                        name = Some(n.to_string());
                    }
                    break;
                }
            }
            _ => {}
        }
    }

    let kind = kind.expect("serde_derive shim: not a struct or enum");
    let name = name.expect("serde_derive shim: missing item name");

    // Skip generics if present (none expected in this workspace).
    let mut depth = 0i32;
    let body = loop {
        match toks.next() {
            Some(TokenTree::Punct(p)) if p.as_char() == '<' => depth += 1,
            Some(TokenTree::Punct(p)) if p.as_char() == '>' => depth -= 1,
            Some(TokenTree::Group(g)) if depth == 0 => break Some(g),
            Some(TokenTree::Punct(p)) if p.as_char() == ';' && depth == 0 => break None,
            Some(_) => {}
            None => break None,
        }
    };
    if depth != 0 || toks.peek().is_some() && body.is_none() {
        // Defensive: generic or exotic items are out of scope for the shim.
    }

    let shape = match (kind.as_str(), body) {
        ("struct", Some(g)) if g.delimiter() == Delimiter::Brace => {
            Shape::NamedStruct(parse_named_fields(g.stream()))
        }
        ("struct", Some(g)) if g.delimiter() == Delimiter::Parenthesis => {
            Shape::TupleStruct(count_top_level_items(g.stream()))
        }
        ("struct", _) => Shape::NamedStruct(Vec::new()),
        ("enum", Some(g)) => Shape::Enum(parse_variants(g.stream())),
        _ => panic!("serde_derive shim: unsupported item shape"),
    };
    Item { name, shape }
}

/// Splits a brace/paren body into top-level comma-separated chunks.
fn split_top_level(stream: TokenStream) -> Vec<Vec<TokenTree>> {
    let mut chunks = vec![Vec::new()];
    for tok in stream {
        match &tok {
            TokenTree::Punct(p) if p.as_char() == ',' => chunks.push(Vec::new()),
            _ => chunks.last_mut().unwrap().push(tok),
        }
    }
    chunks.retain(|c| !c.is_empty());
    chunks
}

fn count_top_level_items(stream: TokenStream) -> usize {
    split_top_level(stream).len()
}

/// `name` of each `[attrs] [pub] name : Type` field, in declaration order.
fn parse_named_fields(stream: TokenStream) -> Vec<String> {
    split_top_level(stream)
        .into_iter()
        .filter_map(|chunk| first_meaning_ident(&chunk))
        .collect()
}

fn parse_variants(stream: TokenStream) -> Vec<Variant> {
    split_top_level(stream)
        .into_iter()
        .filter_map(|chunk| {
            let name = first_meaning_ident(&chunk)?;
            // Payload group, if any, directly follows the variant name.
            let payload = chunk
                .iter()
                .find_map(|t| match t {
                    TokenTree::Group(g) if g.delimiter() == Delimiter::Parenthesis => {
                        Some(Payload::Tuple)
                    }
                    TokenTree::Group(g) if g.delimiter() == Delimiter::Brace => {
                        Some(Payload::Struct)
                    }
                    _ => None,
                })
                .unwrap_or(Payload::Unit);
            Some(Variant { name, payload })
        })
        .collect()
}

/// First identifier after attributes and visibility — the field/variant name.
fn first_meaning_ident(chunk: &[TokenTree]) -> Option<String> {
    let mut i = 0;
    while i < chunk.len() {
        match &chunk[i] {
            TokenTree::Punct(p) if p.as_char() == '#' => {
                i += 1; // skip the bracket group too
                if matches!(chunk.get(i), Some(TokenTree::Group(_))) {
                    i += 1;
                }
            }
            TokenTree::Ident(id) if *id.to_string() == *"pub" => {
                i += 1;
                if let Some(TokenTree::Group(g)) = chunk.get(i) {
                    if g.delimiter() == Delimiter::Parenthesis {
                        i += 1;
                    }
                }
            }
            TokenTree::Ident(id) => return Some(id.to_string()),
            _ => i += 1,
        }
    }
    None
}
