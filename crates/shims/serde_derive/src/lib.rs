//! `#[derive(Serialize, Deserialize)]` for the offline serde shim.
//!
//! The build environment has no network access, so this crate parses the
//! derive input with a hand-rolled cursor over [`proc_macro::TokenTree`]s
//! instead of `syn`/`quote`. It supports exactly the shapes the workspace
//! uses: non-generic named-field structs, tuple structs, unit-variant
//! enums, and the `#[serde(skip)]` field attribute (skipped fields must
//! implement `Default`). Anything else produces a compile error naming
//! the unsupported construct.

#![forbid(unsafe_code)]

use proc_macro::{Delimiter, TokenStream, TokenTree};

/// Parsed derive input.
enum Item {
    Struct { name: String, fields: Fields },
    Enum { name: String, variants: Vec<String> },
}

enum Fields {
    /// `(name, skip)` pairs in declaration order.
    Named(Vec<(String, bool)>),
    /// Tuple struct arity.
    Tuple(usize),
    Unit,
}

#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    match parse_item(input) {
        Ok(item) => gen_serialize(&item).parse().expect("generated impl parses"),
        Err(msg) => compile_error(&msg),
    }
}

#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    match parse_item(input) {
        Ok(item) => gen_deserialize(&item)
            .parse()
            .expect("generated impl parses"),
        Err(msg) => compile_error(&msg),
    }
}

fn compile_error(msg: &str) -> TokenStream {
    format!("compile_error!({msg:?});").parse().unwrap()
}

/// Skip one attribute (`#` + bracket group) if present; returns whether
/// the attribute was `#[serde(skip)]`.
fn eat_attr(tokens: &[TokenTree], pos: &mut usize) -> Option<bool> {
    match tokens.get(*pos) {
        Some(TokenTree::Punct(p)) if p.as_char() == '#' => {}
        _ => return None,
    }
    let Some(TokenTree::Group(g)) = tokens.get(*pos + 1) else {
        return None;
    };
    if g.delimiter() != Delimiter::Bracket {
        return None;
    }
    *pos += 2;
    let inner: Vec<TokenTree> = g.stream().into_iter().collect();
    let is_serde = matches!(&inner.first(), Some(TokenTree::Ident(i)) if i.to_string() == "serde");
    let mut skip = false;
    if is_serde {
        if let Some(TokenTree::Group(args)) = inner.get(1) {
            for t in args.stream() {
                if let TokenTree::Ident(i) = t {
                    match i.to_string().as_str() {
                        "skip" => skip = true,
                        other => panic!(
                            "serde shim derive: unsupported serde attribute `{other}` \
                             (only `skip` is implemented)"
                        ),
                    }
                }
            }
        }
    }
    Some(skip)
}

/// Skip a visibility modifier (`pub`, `pub(crate)`, …) if present.
fn eat_visibility(tokens: &[TokenTree], pos: &mut usize) {
    if matches!(tokens.get(*pos), Some(TokenTree::Ident(i)) if i.to_string() == "pub") {
        *pos += 1;
        if matches!(tokens.get(*pos), Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis)
        {
            *pos += 1;
        }
    }
}

fn parse_item(input: TokenStream) -> Result<Item, String> {
    let tokens: Vec<TokenTree> = input.into_iter().collect();
    let mut pos = 0;
    while eat_attr(&tokens, &mut pos).is_some() {}
    eat_visibility(&tokens, &mut pos);
    let kind = match tokens.get(pos) {
        Some(TokenTree::Ident(i)) => i.to_string(),
        other => {
            return Err(format!(
                "serde shim derive: expected struct/enum, got {other:?}"
            ))
        }
    };
    pos += 1;
    let name = match tokens.get(pos) {
        Some(TokenTree::Ident(i)) => i.to_string(),
        other => {
            return Err(format!(
                "serde shim derive: expected type name, got {other:?}"
            ))
        }
    };
    pos += 1;
    if matches!(tokens.get(pos), Some(TokenTree::Punct(p)) if p.as_char() == '<') {
        return Err(format!(
            "serde shim derive: generic type `{name}` is not supported"
        ));
    }
    match kind.as_str() {
        "struct" => match tokens.get(pos) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => Ok(Item::Struct {
                name,
                fields: Fields::Named(parse_named_fields(g.stream())?),
            }),
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                Ok(Item::Struct {
                    name,
                    fields: Fields::Tuple(count_tuple_fields(g.stream())),
                })
            }
            Some(TokenTree::Punct(p)) if p.as_char() == ';' => Ok(Item::Struct {
                name,
                fields: Fields::Unit,
            }),
            other => Err(format!(
                "serde shim derive: unsupported struct body for `{name}`: {other:?}"
            )),
        },
        "enum" => match tokens.get(pos) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => Ok(Item::Enum {
                variants: parse_unit_variants(&name, g.stream())?,
                name,
            }),
            other => Err(format!(
                "serde shim derive: unsupported enum body for `{name}`: {other:?}"
            )),
        },
        other => Err(format!(
            "serde shim derive: expected struct or enum, found `{other}`"
        )),
    }
}

/// Parse `field: Type` declarations, tracking `#[serde(skip)]`.
fn parse_named_fields(body: TokenStream) -> Result<Vec<(String, bool)>, String> {
    let tokens: Vec<TokenTree> = body.into_iter().collect();
    let mut fields = Vec::new();
    let mut pos = 0;
    while pos < tokens.len() {
        let mut skip = false;
        while let Some(s) = eat_attr(&tokens, &mut pos) {
            skip |= s;
        }
        if pos >= tokens.len() {
            break;
        }
        eat_visibility(&tokens, &mut pos);
        let name = match tokens.get(pos) {
            Some(TokenTree::Ident(i)) => i.to_string(),
            other => {
                return Err(format!(
                    "serde shim derive: expected field name, got {other:?}"
                ))
            }
        };
        pos += 1;
        match tokens.get(pos) {
            Some(TokenTree::Punct(p)) if p.as_char() == ':' => pos += 1,
            other => return Err(format!("serde shim derive: expected `:`, got {other:?}")),
        }
        // Consume the type: everything until a comma at angle-depth 0.
        let mut angle_depth = 0i32;
        while let Some(t) = tokens.get(pos) {
            if let TokenTree::Punct(p) = t {
                match p.as_char() {
                    '<' => angle_depth += 1,
                    '>' => angle_depth -= 1,
                    ',' if angle_depth == 0 => break,
                    _ => {}
                }
            }
            pos += 1;
        }
        pos += 1; // past the comma (or end)
        fields.push((name, skip));
    }
    Ok(fields)
}

/// Count top-level comma-separated fields of a tuple struct.
fn count_tuple_fields(body: TokenStream) -> usize {
    let tokens: Vec<TokenTree> = body.into_iter().collect();
    if tokens.is_empty() {
        return 0;
    }
    let mut count = 1;
    let mut angle_depth = 0i32;
    let mut saw_token_since_comma = false;
    for t in &tokens {
        if let TokenTree::Punct(p) = t {
            match p.as_char() {
                '<' => angle_depth += 1,
                '>' => angle_depth -= 1,
                ',' if angle_depth == 0 => {
                    count += 1;
                    saw_token_since_comma = false;
                    continue;
                }
                _ => {}
            }
        }
        saw_token_since_comma = true;
    }
    if !saw_token_since_comma {
        count -= 1; // trailing comma
    }
    count
}

/// Parse enum variants; only unit variants are supported.
fn parse_unit_variants(enum_name: &str, body: TokenStream) -> Result<Vec<String>, String> {
    let tokens: Vec<TokenTree> = body.into_iter().collect();
    let mut variants = Vec::new();
    let mut pos = 0;
    while pos < tokens.len() {
        while eat_attr(&tokens, &mut pos).is_some() {}
        if pos >= tokens.len() {
            break;
        }
        let v = match tokens.get(pos) {
            Some(TokenTree::Ident(i)) => i.to_string(),
            other => {
                return Err(format!(
                    "serde shim derive: expected variant of `{enum_name}`, got {other:?}"
                ))
            }
        };
        pos += 1;
        match tokens.get(pos) {
            None => {}
            Some(TokenTree::Punct(p)) if p.as_char() == ',' => pos += 1,
            Some(TokenTree::Group(_)) => {
                return Err(format!(
                    "serde shim derive: data-carrying variant `{enum_name}::{v}` is not supported"
                ))
            }
            Some(TokenTree::Punct(p)) if p.as_char() == '=' => {
                return Err(format!(
                    "serde shim derive: discriminant on `{enum_name}::{v}` is not supported"
                ))
            }
            other => {
                return Err(format!(
                    "serde shim derive: unexpected token after `{enum_name}::{v}`: {other:?}"
                ))
            }
        }
        variants.push(v);
    }
    Ok(variants)
}

fn gen_serialize(item: &Item) -> String {
    match item {
        Item::Struct { name, fields } => {
            let body = match fields {
                Fields::Named(fs) => {
                    let mut s = String::from(
                        "let mut __m: ::std::vec::Vec<(::std::string::String, ::serde::Value)> = \
                         ::std::vec::Vec::new();\n",
                    );
                    for (f, skip) in fs {
                        if *skip {
                            continue;
                        }
                        s.push_str(&format!(
                            "__m.push((::std::string::String::from({f:?}), \
                             ::serde::Serialize::to_value(&self.{f})));\n"
                        ));
                    }
                    s.push_str("::serde::Value::Map(__m)");
                    s
                }
                Fields::Tuple(1) => "::serde::Serialize::to_value(&self.0)".to_string(),
                Fields::Tuple(n) => {
                    let elems: Vec<String> = (0..*n)
                        .map(|i| format!("::serde::Serialize::to_value(&self.{i})"))
                        .collect();
                    format!("::serde::Value::Seq(vec![{}])", elems.join(", "))
                }
                Fields::Unit => "::serde::Value::Null".to_string(),
            };
            format!(
                "impl ::serde::Serialize for {name} {{\n\
                 fn to_value(&self) -> ::serde::Value {{\n{body}\n}}\n}}"
            )
        }
        Item::Enum { name, variants } => {
            let arms: Vec<String> = variants
                .iter()
                .map(|v| format!("{name}::{v} => {v:?},"))
                .collect();
            format!(
                "impl ::serde::Serialize for {name} {{\n\
                 fn to_value(&self) -> ::serde::Value {{\n\
                 ::serde::Value::Str(::std::string::String::from(match self {{ {} }}))\n\
                 }}\n}}",
                arms.join("\n")
            )
        }
    }
}

fn gen_deserialize(item: &Item) -> String {
    match item {
        Item::Struct { name, fields } => {
            let body = match fields {
                Fields::Named(fs) => {
                    let mut inits = Vec::new();
                    for (f, skip) in fs {
                        if *skip {
                            inits.push(format!("{f}: ::std::default::Default::default(),"));
                        } else {
                            inits.push(format!(
                                "{f}: match __v.get({f:?}) {{\n\
                                 ::std::option::Option::Some(__x) => \
                                 ::serde::Deserialize::from_value(__x)?,\n\
                                 ::std::option::Option::None => return \
                                 ::std::result::Result::Err(::serde::Error::new(\
                                 concat!(\"missing field `\", {f:?}, \"` in {name}\"))),\n}},"
                            ));
                        }
                    }
                    format!(
                        "if __v.as_map().is_none() {{\n\
                         return ::std::result::Result::Err(::serde::Error::new(\
                         \"expected map for {name}\"));\n}}\n\
                         ::std::result::Result::Ok({name} {{\n{}\n}})",
                        inits.join("\n")
                    )
                }
                Fields::Tuple(1) => format!(
                    "::std::result::Result::Ok({name}(::serde::Deserialize::from_value(__v)?))"
                ),
                Fields::Tuple(n) => {
                    let elems: Vec<String> = (0..*n)
                        .map(|i| format!("::serde::Deserialize::from_value(&__s[{i}])?"))
                        .collect();
                    format!(
                        "let __s = __v.as_seq().ok_or_else(|| \
                         ::serde::Error::new(\"expected sequence for {name}\"))?;\n\
                         if __s.len() != {n} {{\n\
                         return ::std::result::Result::Err(::serde::Error::new(\
                         \"wrong arity for {name}\"));\n}}\n\
                         ::std::result::Result::Ok({name}({}))",
                        elems.join(", ")
                    )
                }
                Fields::Unit => format!("::std::result::Result::Ok({name})"),
            };
            format!(
                "impl ::serde::Deserialize for {name} {{\n\
                 fn from_value(__v: &::serde::Value) -> \
                 ::std::result::Result<Self, ::serde::Error> {{\n{body}\n}}\n}}"
            )
        }
        Item::Enum { name, variants } => {
            let arms: Vec<String> = variants
                .iter()
                .map(|v| {
                    format!("::std::option::Option::Some({v:?}) => ::std::result::Result::Ok({name}::{v}),")
                })
                .collect();
            format!(
                "impl ::serde::Deserialize for {name} {{\n\
                 fn from_value(__v: &::serde::Value) -> \
                 ::std::result::Result<Self, ::serde::Error> {{\n\
                 match __v.as_str() {{\n{}\n_ => ::std::result::Result::Err(\
                 ::serde::Error::new(\"unknown variant for {name}\")),\n}}\n}}\n}}",
                arms.join("\n")
            )
        }
    }
}
