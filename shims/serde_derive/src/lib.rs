//! `#[derive(Serialize)]` / `#[derive(Deserialize)]` for the in-tree serde
//! shim, written directly against `proc_macro` (syn/quote are unavailable
//! offline).
//!
//! Supported shapes — exactly what this workspace derives on:
//! - named-field structs
//! - enums with unit, tuple, and struct variants (externally tagged)
//! - `#[serde(default)]` and `#[serde(default = "path")]` on fields; such a
//!   field reads an explicit `null` as absent
//! - `Option<T>` fields are implicitly optional (missing key -> `None`)
//! - keys no field names are ignored
//!
//! Anything else (generics, tuple structs, other serde attributes, any
//! serde attribute on the container) panics
//! at expansion time with a clear message, so unsupported use fails the
//! build loudly instead of mis-serializing.

use proc_macro::{Delimiter, TokenStream, TokenTree};
use std::iter::Peekable;

#[derive(Clone, Debug)]
enum DefaultKind {
    Required,
    Std,
    Path(String),
}

#[derive(Clone, Debug)]
struct Field {
    name: String,
    default: DefaultKind,
    is_option: bool,
}

#[derive(Debug)]
enum VariantKind {
    Unit,
    Tuple(usize),
    Struct(Vec<Field>),
}

#[derive(Debug)]
struct Variant {
    name: String,
    kind: VariantKind,
}

enum Shape {
    Struct(Vec<Field>),
    Enum(Vec<Variant>),
}

#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let (name, shape) = parse_item(input);
    let code = match &shape {
        Shape::Struct(fields) => gen_ser_struct(&name, fields),
        Shape::Enum(variants) => gen_ser_enum(&name, variants),
    };
    code.parse().expect("serde shim derive: generated invalid Serialize impl")
}

#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    let (name, shape) = parse_item(input);
    let code = match &shape {
        Shape::Struct(fields) => gen_de_struct(&name, fields),
        Shape::Enum(variants) => gen_de_enum(&name, variants),
    };
    code.parse().expect("serde shim derive: generated invalid Deserialize impl")
}

// ---- parsing ------------------------------------------------------------

fn parse_item(input: TokenStream) -> (String, Shape) {
    let mut toks = input.into_iter().peekable();
    let mut kind: Option<String> = None;
    while let Some(tt) = toks.next() {
        match tt {
            TokenTree::Punct(p) if p.as_char() == '#' => {
                // outer attribute: doc comment, derive, repr — never serde
                if let Some(TokenTree::Group(g)) = toks.next() {
                    let first = g.stream().into_iter().next();
                    assert!(
                        !matches!(&first, Some(TokenTree::Ident(i)) if i.to_string() == "serde"),
                        "serde shim derive: container attributes are not supported"
                    );
                }
            }
            TokenTree::Ident(id) => {
                let s = id.to_string();
                if s == "pub" {
                    if let Some(TokenTree::Group(g)) = toks.peek() {
                        if g.delimiter() == Delimiter::Parenthesis {
                            toks.next();
                        }
                    }
                } else if s == "struct" || s == "enum" {
                    kind = Some(s);
                    break;
                } else {
                    panic!("serde shim derive: unsupported item keyword `{s}`");
                }
            }
            other => panic!("serde shim derive: unexpected token {other}"),
        }
    }
    let kind = kind.expect("serde shim derive: expected `struct` or `enum`");
    let name = match toks.next() {
        Some(TokenTree::Ident(i)) => i.to_string(),
        other => panic!("serde shim derive: expected item name, got {other:?}"),
    };
    match toks.next() {
        Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
            if kind == "struct" {
                (name, Shape::Struct(parse_fields(g.stream())))
            } else {
                (name, Shape::Enum(parse_variants(g.stream())))
            }
        }
        Some(TokenTree::Punct(p)) if p.as_char() == '<' => {
            panic!("serde shim derive: generic item `{name}` not supported")
        }
        other => panic!(
            "serde shim derive: unsupported shape for `{name}` (tuple/unit struct?): {other:?}"
        ),
    }
}

fn parse_fields(stream: TokenStream) -> Vec<Field> {
    let mut toks = stream.into_iter().peekable();
    let mut fields = Vec::new();
    loop {
        let default = take_attrs(&mut toks);
        skip_visibility(&mut toks);
        let name = match toks.next() {
            Some(TokenTree::Ident(i)) => i.to_string(),
            None => break,
            other => panic!("serde shim derive: expected field name, got {other:?}"),
        };
        match toks.next() {
            Some(TokenTree::Punct(p)) if p.as_char() == ':' => {}
            other => panic!("serde shim derive: expected `:` after `{name}`, got {other:?}"),
        }
        // Consume the type; only its first token matters (Option detection).
        let mut depth = 0i64;
        let mut type_first: Option<String> = None;
        loop {
            let at_top_comma = matches!(
                toks.peek(),
                Some(TokenTree::Punct(p)) if p.as_char() == ',' && depth == 0
            );
            if at_top_comma {
                toks.next();
                break;
            }
            let Some(tt) = toks.next() else { break };
            match &tt {
                TokenTree::Punct(p) if p.as_char() == '<' => depth += 1,
                TokenTree::Punct(p) if p.as_char() == '>' => depth -= 1,
                _ => {}
            }
            if type_first.is_none() {
                type_first = Some(match &tt {
                    TokenTree::Ident(i) => i.to_string(),
                    _ => String::new(),
                });
            }
        }
        let is_option = type_first.as_deref() == Some("Option");
        fields.push(Field {
            name,
            default,
            is_option,
        });
    }
    fields
}

fn parse_variants(stream: TokenStream) -> Vec<Variant> {
    let mut toks = stream.into_iter().peekable();
    let mut variants = Vec::new();
    loop {
        let _ = take_attrs(&mut toks);
        let name = match toks.next() {
            Some(TokenTree::Ident(i)) => i.to_string(),
            None => break,
            other => panic!("serde shim derive: expected variant name, got {other:?}"),
        };
        let kind = match toks.peek() {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                let count = count_tuple_fields(g.stream());
                toks.next();
                VariantKind::Tuple(count)
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                let fields = parse_fields(g.stream());
                toks.next();
                VariantKind::Struct(fields)
            }
            _ => VariantKind::Unit,
        };
        if matches!(toks.peek(), Some(TokenTree::Punct(p)) if p.as_char() == ',') {
            toks.next();
        }
        variants.push(Variant { name, kind });
    }
    variants
}

type TokIter = Peekable<proc_macro::token_stream::IntoIter>;

/// Consume leading attributes; return the serde default mode they specify.
fn take_attrs(toks: &mut TokIter) -> DefaultKind {
    let mut default = DefaultKind::Required;
    while matches!(toks.peek(), Some(TokenTree::Punct(p)) if p.as_char() == '#') {
        toks.next();
        let Some(TokenTree::Group(g)) = toks.next() else {
            panic!("serde shim derive: malformed attribute");
        };
        parse_attr(g.stream(), &mut default);
    }
    default
}

fn skip_visibility(toks: &mut TokIter) {
    if matches!(toks.peek(), Some(TokenTree::Ident(i)) if i.to_string() == "pub") {
        toks.next();
        if let Some(TokenTree::Group(g)) = toks.peek() {
            if g.delimiter() == Delimiter::Parenthesis {
                toks.next();
            }
        }
    }
}

fn parse_attr(stream: TokenStream, default: &mut DefaultKind) {
    let mut toks = stream.into_iter();
    match toks.next() {
        Some(TokenTree::Ident(i)) if i.to_string() == "serde" => {
            let Some(TokenTree::Group(g)) = toks.next() else {
                panic!("serde shim derive: malformed #[serde] attribute");
            };
            let inner: Vec<TokenTree> = g.stream().into_iter().collect();
            match inner.first() {
                Some(TokenTree::Ident(i)) if i.to_string() == "default" => {
                    if inner.len() == 1 {
                        *default = DefaultKind::Std;
                    } else if inner.len() == 3 {
                        if let TokenTree::Literal(lit) = &inner[2] {
                            let path = lit.to_string().trim_matches('"').to_string();
                            *default = DefaultKind::Path(path);
                        } else {
                            panic!("serde shim derive: expected string in #[serde(default = ...)]");
                        }
                    } else {
                        panic!("serde shim derive: malformed #[serde(default ...)]");
                    }
                }
                other => panic!("serde shim derive: unsupported serde attribute {other:?}"),
            }
        }
        _ => {} // non-serde attribute (doc comment etc.)
    }
}

/// Number of fields in a tuple-variant parenthesis group.
fn count_tuple_fields(stream: TokenStream) -> usize {
    let mut depth = 0i64;
    let mut count = 0usize;
    let mut saw_tokens_since_comma = false;
    for tt in stream {
        match &tt {
            TokenTree::Punct(p) if p.as_char() == '<' => depth += 1,
            TokenTree::Punct(p) if p.as_char() == '>' => depth -= 1,
            TokenTree::Punct(p) if p.as_char() == ',' && depth == 0 => {
                if saw_tokens_since_comma {
                    count += 1;
                }
                saw_tokens_since_comma = false;
                continue;
            }
            _ => {}
        }
        saw_tokens_since_comma = true;
    }
    if saw_tokens_since_comma {
        count += 1;
    }
    count
}

// ---- code generation ----------------------------------------------------

fn gen_ser_struct(name: &str, fields: &[Field]) -> String {
    let entries: String = fields
        .iter()
        .map(|f| {
            format!(
                "(::std::string::String::from(\"{0}\"), ::serde::Serialize::serialize_value(&self.{0})),",
                f.name
            )
        })
        .collect();
    format!(
        "impl ::serde::Serialize for {name} {{\n\
            fn serialize_value(&self) -> ::serde::Value {{\n\
                ::serde::Value::Object(::std::vec![{entries}])\n\
            }}\n\
        }}"
    )
}

fn missing_field_expr(owner: &str, f: &Field) -> String {
    match &f.default {
        DefaultKind::Std => "::std::default::Default::default()".to_string(),
        DefaultKind::Path(p) => format!("{p}()"),
        DefaultKind::Required if f.is_option => "::std::option::Option::None".to_string(),
        DefaultKind::Required => format!(
            "return ::std::result::Result::Err(::serde::DeError::custom(\"{owner}: missing field `{}`\"))",
            f.name
        ),
    }
}

/// `field_name: <lookup-or-default expr>,` list for a struct literal.
fn field_init_list(owner: &str, fields: &[Field], src: &str) -> String {
    fields
        .iter()
        .map(|f| {
            // a defaulted field reads `null` as absent, so a field that was
            // an `Option` keeps loading after it becomes a plain value
            let null_is_absent = match f.default {
                DefaultKind::Required => "",
                _ if f.is_option => "",
                _ => ".filter(|__x| !__x.is_null())",
            };
            format!(
                "{0}: match ::serde::field({src}, \"{0}\"){2} {{\n\
                    ::std::option::Option::Some(__x) => ::serde::Deserialize::deserialize_value(__x)?,\n\
                    ::std::option::Option::None => {1},\n\
                }},",
                f.name,
                missing_field_expr(owner, f),
                null_is_absent
            )
        })
        .collect()
}

fn gen_de_struct(name: &str, fields: &[Field]) -> String {
    let inits = field_init_list(name, fields, "__fields");
    format!(
        "impl ::serde::Deserialize for {name} {{\n\
            fn deserialize_value(__v: &::serde::Value) -> ::std::result::Result<Self, ::serde::DeError> {{\n\
                let __fields = match __v.as_object() {{\n\
                    ::std::option::Option::Some(f) => f,\n\
                    ::std::option::Option::None => return ::std::result::Result::Err(::serde::DeError::custom(\"{name}: expected object\")),\n\
                }};\n\
                ::std::result::Result::Ok({name} {{ {inits} }})\n\
            }}\n\
        }}"
    )
}

fn gen_ser_enum(name: &str, variants: &[Variant]) -> String {
    let arms: String = variants
        .iter()
        .map(|v| {
            let vn = &v.name;
            match &v.kind {
                VariantKind::Unit => format!(
                    "{name}::{vn} => ::serde::Value::Str(::std::string::String::from(\"{vn}\")),"
                ),
                VariantKind::Tuple(1) => format!(
                    "{name}::{vn}(__f0) => ::serde::Value::Object(::std::vec![(\
                        ::std::string::String::from(\"{vn}\"), \
                        ::serde::Serialize::serialize_value(__f0))]),"
                ),
                VariantKind::Tuple(n) => {
                    let binds: Vec<String> = (0..*n).map(|i| format!("__f{i}")).collect();
                    let sers: String = binds
                        .iter()
                        .map(|b| format!("::serde::Serialize::serialize_value({b}),"))
                        .collect();
                    format!(
                        "{name}::{vn}({}) => ::serde::Value::Object(::std::vec![(\
                            ::std::string::String::from(\"{vn}\"), \
                            ::serde::Value::Array(::std::vec![{sers}]))]),",
                        binds.join(", ")
                    )
                }
                VariantKind::Struct(fields) => {
                    let binds: Vec<&str> = fields.iter().map(|f| f.name.as_str()).collect();
                    let entries: String = fields
                        .iter()
                        .map(|f| {
                            format!(
                                "(::std::string::String::from(\"{0}\"), ::serde::Serialize::serialize_value({0})),",
                                f.name
                            )
                        })
                        .collect();
                    format!(
                        "{name}::{vn} {{ {} }} => ::serde::Value::Object(::std::vec![(\
                            ::std::string::String::from(\"{vn}\"), \
                            ::serde::Value::Object(::std::vec![{entries}]))]),",
                        binds.join(", ")
                    )
                }
            }
        })
        .collect();
    format!(
        "impl ::serde::Serialize for {name} {{\n\
            fn serialize_value(&self) -> ::serde::Value {{\n\
                match self {{ {arms} }}\n\
            }}\n\
        }}"
    )
}

fn gen_de_enum(name: &str, variants: &[Variant]) -> String {
    let unit_arms: String = variants
        .iter()
        .filter(|v| matches!(v.kind, VariantKind::Unit))
        .map(|v| format!("\"{0}\" => ::std::result::Result::Ok({name}::{0}),", v.name))
        .collect();
    let tagged_arms: String = variants
        .iter()
        .filter_map(|v| {
            let vn = &v.name;
            match &v.kind {
                VariantKind::Unit => None,
                VariantKind::Tuple(1) => Some(format!(
                    "\"{vn}\" => ::std::result::Result::Ok({name}::{vn}(\
                        ::serde::Deserialize::deserialize_value(__inner)?)),"
                )),
                VariantKind::Tuple(n) => {
                    let gets: Vec<String> = (0..*n)
                        .map(|i| {
                            format!("::serde::Deserialize::deserialize_value(&__arr[{i}])?")
                        })
                        .collect();
                    Some(format!(
                        "\"{vn}\" => {{\n\
                            let __arr = match __inner.as_array() {{\n\
                                ::std::option::Option::Some(a) if a.len() == {n} => a,\n\
                                _ => return ::std::result::Result::Err(::serde::DeError::custom(\"{name}::{vn}: expected {n}-element array\")),\n\
                            }};\n\
                            ::std::result::Result::Ok({name}::{vn}({}))\n\
                        }}",
                        gets.join(", ")
                    ))
                }
                VariantKind::Struct(fields) => {
                    let owner = format!("{name}::{vn}");
                    let inits = field_init_list(&owner, fields, "__vfields");
                    Some(format!(
                        "\"{vn}\" => {{\n\
                            let __vfields = match __inner.as_object() {{\n\
                                ::std::option::Option::Some(f) => f,\n\
                                ::std::option::Option::None => return ::std::result::Result::Err(::serde::DeError::custom(\"{owner}: expected object\")),\n\
                            }};\n\
                            ::std::result::Result::Ok({name}::{vn} {{ {inits} }})\n\
                        }}"
                    ))
                }
            }
        })
        .collect();
    format!(
        "impl ::serde::Deserialize for {name} {{\n\
            fn deserialize_value(__v: &::serde::Value) -> ::std::result::Result<Self, ::serde::DeError> {{\n\
                if let ::std::option::Option::Some(__s) = __v.as_str() {{\n\
                    return match __s {{\n\
                        {unit_arms}\n\
                        __other => ::std::result::Result::Err(::serde::DeError::custom(\
                            ::std::format!(\"{name}: unknown variant `{{}}`\", __other))),\n\
                    }};\n\
                }}\n\
                let __fields = match __v.as_object() {{\n\
                    ::std::option::Option::Some(f) if f.len() == 1 => f,\n\
                    _ => return ::std::result::Result::Err(::serde::DeError::custom(\"{name}: expected single-variant object\")),\n\
                }};\n\
                let (__tag, __inner) = (&__fields[0].0, &__fields[0].1);\n\
                let _ = __inner; // unused when every variant is a unit variant\n\
                match __tag.as_str() {{\n\
                    {tagged_arms}\n\
                    __other => ::std::result::Result::Err(::serde::DeError::custom(\
                        ::std::format!(\"{name}: unknown variant `{{}}`\", __other))),\n\
                }}\n\
            }}\n\
        }}"
    )
}
