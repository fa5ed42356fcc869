//! Recursive-descent parser producing a name-based AST.
//!
//! Name resolution (object vs class vs data value vs bound variable) is
//! deferred to [`crate::elab`], so the grammar stays context-free.

use crate::lexer::{lex, LangError, Span, Tok, Token};

/// A parsed source file: one universe block, specifications, and
/// (optionally) development obligations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Ast {
    /// Declarations inside `universe { … }`.
    pub universe: Vec<UDecl>,
    /// Source span of each universe declaration (keyword through the
    /// closing `;`), parallel to `universe`.  Fix engines use these to
    /// delete a declaration without re-lexing.
    pub universe_spans: Vec<Span>,
    /// The `spec … { … }` blocks, in order.
    pub specs: Vec<SpecDecl>,
    /// The `component … { … }` blocks, in order.
    pub components: Vec<ComponentDecl>,
    /// Statements of `development { … }` blocks, in order.
    pub development: Vec<DevStmt>,
}

/// A `component` block: a set of objects with behaviours given by named
/// specifications (the semantic components of Def. 8–9).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ComponentDecl {
    /// Component name.
    pub name: String,
    /// `(object, behaviour-spec)` pairs, from `obj behaves Spec;` lines.
    pub members: Vec<(String, String)>,
    /// Source position.
    pub span: Span,
}

/// One statement of a `development { … }` block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DevStmt {
    /// `refine <concrete> of <abstract>;` — a Def.-2 obligation.
    /// (`compose <name> from <left> with <right>;` registers a merge.)
    Refine {
        /// The concrete specification.
        concrete: String,
        /// The abstract specification.
        abstract_: String,
        /// Source position.
        span: Span,
    },
    /// `compose <name> = <left> with <right>;` — register a composition.
    Compose {
        /// The new name.
        name: String,
        /// Left operand.
        left: String,
        /// Right operand.
        right: String,
        /// Source position.
        span: Span,
    },
    /// `sound <spec> for <component>;` — a §2/§7 soundness obligation.
    Sound {
        /// The specification claimed sound.
        spec: String,
        /// The component it describes.
        component: String,
        /// Source position.
        span: Span,
    },
}

/// A universe declaration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UDecl {
    /// `class C;` — an infinite object class.
    Class(String),
    /// `data D;` — an infinite data class.
    Data(String),
    /// `object o;` / `object c : C;`
    Object {
        /// Object name.
        name: String,
        /// Optional class membership.
        class: Option<String>,
    },
    /// `method M;` / `method M(D);`
    Method {
        /// Method name.
        name: String,
        /// Optional data-class parameter.
        param: Option<String>,
    },
    /// `value d : D;` — a named data value.
    Value {
        /// Value name.
        name: String,
        /// Its data class.
        class: String,
    },
    /// `witnesses C n;` / `witnesses anon n;` / `witnesses methods n;`
    Witnesses {
        /// `Some(class name)`, or `None` with `anon`/`methods` selected by
        /// `kind`.
        target: WitnessTarget,
        /// How many witnesses.
        count: u64,
    },
}

/// What a `witnesses` declaration populates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WitnessTarget {
    /// Witnesses of a named (object or data) class residue.
    Class(String),
    /// Witnesses of the anonymous environment.
    Anon,
    /// Witnesses of the undeclared-method residue.
    Methods,
}

/// A `spec` block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecDecl {
    /// Specification name.
    pub name: String,
    /// Object names in `objects { … }`, each with its own span.
    pub objects: Vec<(String, Span)>,
    /// Alphabet comprehensions.
    pub alphabet: Vec<TemplateAst>,
    /// The trace set.
    pub traces: TracesAst,
    /// Where the spec starts (for error reporting).
    pub span: Span,
}

/// An event template `<caller, callee, method>` before name resolution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TemplateAst {
    /// Caller name.
    pub caller: String,
    /// Callee name.
    pub callee: String,
    /// Method name.
    pub method: String,
    /// Argument: absent, wildcard `_`, or a name (class or value).
    pub arg: ArgAst,
    /// Source location.
    pub span: Span,
}

/// The argument slot of a template.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArgAst {
    /// No parentheses.
    Absent,
    /// `(_)` — whatever the signature admits.
    Wild,
    /// `(name)` — a data class or a named value.
    Name(String),
}

/// The trace-set clause.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TracesAst {
    /// `traces any;`
    Any,
    /// `traces prs R;`
    Prs(ReAst),
}

/// A parsed regular expression.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReAst {
    /// `eps`
    Eps,
    /// A template literal.
    Lit(TemplateAst),
    /// Juxtaposition.
    Seq(Vec<ReAst>),
    /// `|`
    Alt(Vec<ReAst>),
    /// `*`
    Star(Box<ReAst>),
    /// `+`
    Plus(Box<ReAst>),
    /// `?`
    Opt(Box<ReAst>),
    /// `[ R . x in C ]` — the paper's `[R • x ∈ C]`.
    Bind {
        /// The scope body.
        body: Box<ReAst>,
        /// The bound variable name.
        var: String,
        /// The class the variable ranges over.
        class: String,
        /// The class name's source position.
        span: Span,
    },
    /// `[ R ]` — plain grouping.
    Group(Box<ReAst>),
}

/// How deeply a regular expression may nest: every `(`, `[` and postfix
/// `*`/`+`/`?` on the path from the root to a leaf is one level.  Later
/// passes over [`ReAst`] (elaboration, automaton compilation, lint,
/// pretty-printing) recurse once per level, so the cap is what keeps a
/// hostile document from overflowing their stacks.
const MAX_REGEX_NESTING: usize = 256;

/// Parse a source text into an [`Ast`].
pub fn parse(src: &str) -> Result<Ast, LangError> {
    let tokens = lex(src)?;
    let mut p = Parser { tokens, pos: 0 };
    p.document()
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
}

impl Parser {
    fn peek(&self) -> &Token {
        &self.tokens[self.pos]
    }

    fn next(&mut self) -> Token {
        let t = self.tokens[self.pos].clone();
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
        t
    }

    fn eat(&mut self, tok: &Tok) -> bool {
        if &self.peek().tok == tok {
            self.next();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, tok: Tok) -> Result<Token, LangError> {
        if self.peek().tok == tok {
            Ok(self.next())
        } else {
            Err(LangError::new(
                self.peek().span,
                format!("expected {tok}, found {}", self.peek().tok),
            ))
        }
    }

    fn ident(&mut self) -> Result<(String, Span), LangError> {
        match self.peek().tok.clone() {
            Tok::Ident(s) => {
                let span = self.peek().span;
                self.next();
                Ok((s, span))
            }
            other => {
                Err(LangError::new(self.peek().span, format!("expected identifier, found {other}")))
            }
        }
    }

    fn keyword(&mut self, kw: &str) -> Result<Span, LangError> {
        let (s, span) = self.ident()?;
        if s == kw {
            Ok(span)
        } else {
            Err(LangError::new(span, format!("expected `{kw}`, found `{s}`")))
        }
    }

    fn document(&mut self) -> Result<Ast, LangError> {
        let mut universe = Vec::new();
        let mut universe_spans = Vec::new();
        let mut specs = Vec::new();
        let mut components = Vec::new();
        let mut development = Vec::new();
        loop {
            match self.peek().tok.clone() {
                Tok::Eof => break,
                Tok::Ident(s) if s == "universe" => {
                    self.next();
                    self.expect(Tok::LBrace)?;
                    while !self.eat(&Tok::RBrace) {
                        let (decl, span) = self.udecl()?;
                        universe.push(decl);
                        universe_spans.push(span);
                    }
                }
                Tok::Ident(s) if s == "spec" => {
                    self.next();
                    specs.push(self.spec_decl()?);
                }
                Tok::Ident(s) if s == "development" => {
                    self.next();
                    self.expect(Tok::LBrace)?;
                    while !self.eat(&Tok::RBrace) {
                        development.push(self.dev_stmt()?);
                    }
                }
                Tok::Ident(s) if s == "component" => {
                    self.next();
                    components.push(self.component_decl()?);
                }
                other => {
                    return Err(LangError::new(
                        self.peek().span,
                        format!(
                        "expected `universe`, `spec`, `component` or `development`, found {other}"
                    ),
                    ))
                }
            }
        }
        Ok(Ast { universe, universe_spans, specs, components, development })
    }

    fn component_decl(&mut self) -> Result<ComponentDecl, LangError> {
        let (name, span) = self.ident()?;
        self.expect(Tok::LBrace)?;
        let mut members = Vec::new();
        while !self.eat(&Tok::RBrace) {
            let obj = self.ident()?.0;
            self.keyword("behaves")?;
            let spec = self.ident()?.0;
            self.expect(Tok::Semi)?;
            members.push((obj, spec));
        }
        Ok(ComponentDecl { name, members, span })
    }

    fn dev_stmt(&mut self) -> Result<DevStmt, LangError> {
        let (kw, span) = self.ident()?;
        let stmt = match kw.as_str() {
            "refine" => {
                let concrete = self.ident()?.0;
                self.keyword("of")?;
                let abstract_ = self.ident()?.0;
                DevStmt::Refine { concrete, abstract_, span }
            }
            "compose" => {
                // `compose Name from Left with Right;`
                let name = self.ident()?.0;
                self.keyword("from")?;
                let left = self.ident()?.0;
                self.keyword("with")?;
                let right = self.ident()?.0;
                DevStmt::Compose { name, left, right, span }
            }
            "sound" => {
                // `sound Spec for Component;`
                let spec = self.ident()?.0;
                self.keyword("for")?;
                let component = self.ident()?.0;
                DevStmt::Sound { spec, component, span }
            }
            other => {
                return Err(LangError::new(
                    span,
                    format!("unknown development statement `{other}` (expected `refine`, `compose` or `sound`)"),
                ))
            }
        };
        self.expect(Tok::Semi)?;
        Ok(stmt)
    }

    fn udecl(&mut self) -> Result<(UDecl, Span), LangError> {
        let (kw, span) = self.ident()?;
        let decl = match kw.as_str() {
            "class" => UDecl::Class(self.ident()?.0),
            "data" => UDecl::Data(self.ident()?.0),
            "object" => {
                let name = self.ident()?.0;
                let class = if self.eat(&Tok::Colon) { Some(self.ident()?.0) } else { None };
                UDecl::Object { name, class }
            }
            "method" => {
                let name = self.ident()?.0;
                let param = if self.eat(&Tok::LParen) {
                    let c = self.ident()?.0;
                    self.expect(Tok::RParen)?;
                    Some(c)
                } else {
                    None
                };
                UDecl::Method { name, param }
            }
            "value" => {
                let name = self.ident()?.0;
                self.expect(Tok::Colon)?;
                let class = self.ident()?.0;
                UDecl::Value { name, class }
            }
            "witnesses" => {
                let (target_name, _) = self.ident()?;
                let target = match target_name.as_str() {
                    "anon" => WitnessTarget::Anon,
                    "methods" => WitnessTarget::Methods,
                    other => WitnessTarget::Class(other.to_string()),
                };
                let count = match self.next() {
                    Token { tok: Tok::Num(n), .. } => n,
                    t => return Err(LangError::new(t.span, "expected a witness count")),
                };
                UDecl::Witnesses { target, count }
            }
            other => {
                return Err(LangError::new(span, format!("unknown universe declaration `{other}`")))
            }
        };
        let semi = self.expect(Tok::Semi)?;
        Ok((decl, span.through(semi.span)))
    }

    fn spec_decl(&mut self) -> Result<SpecDecl, LangError> {
        let (name, span) = self.ident()?;
        self.expect(Tok::LBrace)?;
        self.keyword("objects")?;
        self.expect(Tok::LBrace)?;
        let mut objects = Vec::new();
        while let Tok::Ident(_) = self.peek().tok {
            objects.push(self.ident()?);
            self.eat(&Tok::Comma);
        }
        self.expect(Tok::RBrace)?;
        self.keyword("alphabet")?;
        self.expect(Tok::LBrace)?;
        let mut alphabet = Vec::new();
        while self.peek().tok == Tok::Lt {
            alphabet.push(self.template()?);
            self.expect(Tok::Semi)?;
        }
        self.expect(Tok::RBrace)?;
        self.keyword("traces")?;
        let traces = match self.peek().tok.clone() {
            Tok::Ident(s) if s == "any" => {
                self.next();
                TracesAst::Any
            }
            Tok::Ident(s) if s == "prs" => {
                self.next();
                TracesAst::Prs(self.regex()?)
            }
            other => {
                return Err(LangError::new(
                    self.peek().span,
                    format!("expected `any` or `prs`, found {other}"),
                ))
            }
        };
        self.expect(Tok::Semi)?;
        self.expect(Tok::RBrace)?;
        Ok(SpecDecl { name, objects, alphabet, traces, span })
    }

    fn template(&mut self) -> Result<TemplateAst, LangError> {
        let open = self.expect(Tok::Lt)?;
        let caller = self.ident()?.0;
        self.expect(Tok::Comma)?;
        let callee = self.ident()?.0;
        self.expect(Tok::Comma)?;
        let method = self.ident()?.0;
        let arg = if self.eat(&Tok::LParen) {
            let a = match self.peek().tok.clone() {
                Tok::Underscore => {
                    self.next();
                    ArgAst::Wild
                }
                Tok::Ident(_) => ArgAst::Name(self.ident()?.0),
                other => {
                    return Err(LangError::new(
                        self.peek().span,
                        format!("expected `_` or a name, found {other}"),
                    ))
                }
            };
            self.expect(Tok::RParen)?;
            a
        } else {
            ArgAst::Absent
        };
        let close = self.expect(Tok::Gt)?;
        Ok(TemplateAst { caller, callee, method, arg, span: open.span.through(close.span) })
    }

    /// A regular expression, parsed without recursion: open `(`/`[`
    /// groups wait on an explicit stack, so no input can exhaust the
    /// parser's own stack, and nesting is capped at [`MAX_REGEX_NESTING`]
    /// for the recursive passes downstream.
    fn regex(&mut self) -> Result<ReAst, LangError> {
        let mut open: Vec<Pending> = Vec::new();
        let mut cur = Pending::default();
        loop {
            match &self.peek().tok {
                Tok::Lt => {
                    let lit = ReAst::Lit(self.template()?);
                    self.postfix(&mut cur, open.len(), lit, 0)?;
                }
                Tok::Ident(s) if s == "eps" => {
                    self.next();
                    self.postfix(&mut cur, open.len(), ReAst::Eps, 0)?;
                }
                Tok::LParen | Tok::LBracket => {
                    self.nest(open.len() + 1)?;
                    let bracket = self.next().tok == Tok::LBracket;
                    open.push(std::mem::replace(
                        &mut cur,
                        Pending { bracket, ..Pending::default() },
                    ));
                }
                Tok::Pipe => {
                    self.next();
                    cur.end_alternative();
                }
                _ => {
                    let Some(parent) = open.pop() else { return Ok(cur.finish().0) };
                    let group = std::mem::replace(&mut cur, parent);
                    let bracket = group.bracket;
                    let (body, height) = group.finish();
                    let node = self.close_group(bracket, body)?;
                    self.postfix(&mut cur, open.len(), node, height + 1)?;
                }
            }
        }
    }

    /// Fail when a node would sit `levels` deep, past [`MAX_REGEX_NESTING`].
    fn nest(&self, levels: usize) -> Result<(), LangError> {
        if levels > MAX_REGEX_NESTING {
            return Err(LangError::new(
                self.peek().span,
                format!("regular expression nested more than {MAX_REGEX_NESTING} levels deep"),
            ));
        }
        Ok(())
    }

    /// Apply the postfix operators following `re` (of `height` levels,
    /// inside `open` groups) and append it to the current sequence.
    fn postfix(
        &mut self,
        cur: &mut Pending,
        open: usize,
        mut re: ReAst,
        mut height: usize,
    ) -> Result<(), LangError> {
        loop {
            let wrap: fn(Box<ReAst>) -> ReAst = match self.peek().tok {
                Tok::Star => ReAst::Star,
                Tok::Plus => ReAst::Plus,
                Tok::Question => ReAst::Opt,
                _ => break,
            };
            height += 1;
            self.nest(open + height)?;
            self.next();
            re = wrap(Box::new(re));
        }
        cur.seq.push((re, height));
        Ok(())
    }

    /// Close a `( R )`, `[ R ]` or `[ R . x in C ]` whose body is parsed.
    fn close_group(&mut self, bracket: bool, body: ReAst) -> Result<ReAst, LangError> {
        if !bracket {
            self.expect(Tok::RParen)?;
            return Ok(ReAst::Group(Box::new(body)));
        }
        let re = if self.eat(&Tok::Dot) {
            let var = self.ident()?.0;
            self.keyword("in")?;
            let (class, span) = self.ident()?;
            ReAst::Bind { body: Box::new(body), var, class, span }
        } else {
            ReAst::Group(Box::new(body))
        };
        self.expect(Tok::RBracket)?;
        Ok(re)
    }
}

/// A regular expression (or `(`/`[` group) still being parsed: the
/// finished alternatives and the current sequence, each part paired with
/// its height — the nesting levels inside it.
#[derive(Default)]
struct Pending {
    /// Opened by `[` rather than `(`.
    bracket: bool,
    alts: Vec<(ReAst, usize)>,
    seq: Vec<(ReAst, usize)>,
}

impl Pending {
    /// `|`: the current sequence becomes an alternative (`eps` if empty).
    fn end_alternative(&mut self) {
        let seq = std::mem::take(&mut self.seq);
        self.alts.push(if seq.is_empty() { (ReAst::Eps, 0) } else { join(seq, ReAst::Seq) });
    }

    fn finish(mut self) -> (ReAst, usize) {
        self.end_alternative();
        join(self.alts, ReAst::Alt)
    }
}

/// One part stays itself; several become `make(parts)`, as deep as the
/// deepest part.
fn join(mut parts: Vec<(ReAst, usize)>, make: fn(Vec<ReAst>) -> ReAst) -> (ReAst, usize) {
    if parts.len() == 1 {
        return parts.pop().expect("one part");
    }
    let height = parts.iter().map(|p| p.1).max().unwrap_or(0);
    (make(parts.into_iter().map(|p| p.0).collect()), height)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_universe_declarations() {
        let ast = parse(
            "universe {
               class Objects;
               data Data;
               object o;
               object c : Objects;
               method R(Data);
               method OW;
               value d1 : Data;
               witnesses Objects 2;
               witnesses anon 1;
               witnesses methods 1;
             }",
        )
        .unwrap();
        assert_eq!(ast.universe.len(), 10);
        assert_eq!(ast.universe[0], UDecl::Class("Objects".into()));
        assert_eq!(
            ast.universe[3],
            UDecl::Object { name: "c".into(), class: Some("Objects".into()) }
        );
        assert_eq!(ast.universe[4], UDecl::Method { name: "R".into(), param: Some("Data".into()) });
        assert_eq!(ast.universe[8], UDecl::Witnesses { target: WitnessTarget::Anon, count: 1 });
        assert!(ast.specs.is_empty());
    }

    #[test]
    fn universe_spans_cover_keyword_through_semicolon() {
        let src = "universe { object o; method R(Data); }";
        let ast = parse(src).unwrap();
        assert_eq!(ast.universe_spans.len(), ast.universe.len());
        let texts: Vec<&str> = ast
            .universe_spans
            .iter()
            .map(|s| &src[s.offset as usize..(s.offset + s.len) as usize])
            .collect();
        assert_eq!(texts, vec!["object o;", "method R(Data);"]);
    }

    #[test]
    fn parses_a_full_spec() {
        let ast = parse(
            "universe { class Objects; object o; method OW; method CW; witnesses Objects 1; }
             spec Write {
               objects { o }
               alphabet { <Objects, o, OW>; <Objects, o, CW>; }
               traces prs [ <x, o, OW> <x, o, CW> . x in Objects ]*;
             }",
        )
        .unwrap();
        assert_eq!(ast.specs.len(), 1);
        let s = &ast.specs[0];
        assert_eq!(s.name, "Write");
        assert_eq!(s.objects.len(), 1);
        assert_eq!(s.objects[0].0, "o");
        assert_eq!((s.objects[0].1.line, s.objects[0].1.col), (3, 26));
        assert_eq!(s.alphabet.len(), 2);
        match &s.traces {
            TracesAst::Prs(ReAst::Star(inner)) => match &**inner {
                ReAst::Bind { var, class, .. } => {
                    assert_eq!(var, "x");
                    assert_eq!(class, "Objects");
                }
                other => panic!("expected bind, got {other:?}"),
            },
            other => panic!("expected starred prs, got {other:?}"),
        }
    }

    #[test]
    fn parses_alternation_and_postfix() {
        let ast = parse(
            "universe { object o; object c; method A; method B; }
             spec S {
               objects { o }
               alphabet { <c, o, A>; <c, o, B>; }
               traces prs (<c, o, A> | <c, o, B>+)? ;
             }",
        )
        .unwrap();
        match &ast.specs[0].traces {
            TracesAst::Prs(ReAst::Opt(g)) => match &**g {
                ReAst::Group(alt) => assert!(matches!(**alt, ReAst::Alt(_))),
                other => panic!("expected group, got {other:?}"),
            },
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn template_argument_forms() {
        let ast = parse(
            "universe { object o; object c; data Data; method W(Data); value d1 : Data; }
             spec S {
               objects { o }
               alphabet { <c, o, W(Data)>; <c, o, W(d1)>; <c, o, W(_)>; }
               traces any;
             }",
        )
        .unwrap();
        let a = &ast.specs[0].alphabet;
        assert_eq!(a[0].arg, ArgAst::Name("Data".into()));
        assert_eq!(a[1].arg, ArgAst::Name("d1".into()));
        assert_eq!(a[2].arg, ArgAst::Wild);
    }

    #[test]
    fn parses_development_blocks() {
        let ast = parse(
            "universe { object o; method M; }
             spec A { objects { o } alphabet { } traces any; }
             development {
               refine A of A;
               compose AB from A with A;
             }",
        )
        .unwrap();
        assert_eq!(ast.development.len(), 2);
        assert!(matches!(
            &ast.development[0],
            DevStmt::Refine { concrete, abstract_, .. }
                if concrete == "A" && abstract_ == "A"
        ));
        assert!(matches!(
            &ast.development[1],
            DevStmt::Compose { name, left, right, .. }
                if name == "AB" && left == "A" && right == "A"
        ));
    }

    #[test]
    fn parses_component_blocks_and_sound_statements() {
        let ast = parse(
            "universe { object o; object c; method M; }
             spec S { objects { o } alphabet { } traces any; }
             component Impl {
               o behaves S;
               c behaves S;
             }
             development { sound S for Impl; }",
        )
        .unwrap();
        assert_eq!(ast.components.len(), 1);
        let c = &ast.components[0];
        assert_eq!(c.name, "Impl");
        assert_eq!(c.members, vec![("o".into(), "S".into()), ("c".into(), "S".into())]);
        assert!(matches!(
            &ast.development[0],
            DevStmt::Sound { spec, component, .. } if spec == "S" && component == "Impl"
        ));
    }

    #[test]
    fn unknown_development_statements_are_rejected() {
        let err = parse(
            "universe { object o; }
             development { prove X of Y; }",
        )
        .unwrap_err();
        assert!(err.message.contains("unknown development statement"));
    }

    #[test]
    fn errors_carry_positions() {
        let err = parse("universe { klass X; }").unwrap_err();
        assert!(err.message.contains("unknown universe declaration"));
        assert_eq!(err.span.line, 1);
        let err2 = parse("spec S { objects { o } alphabet { } traces maybe; }").unwrap_err();
        assert!(err2.message.contains("expected `any` or `prs`"));
    }

    #[test]
    fn missing_semicolons_are_rejected() {
        assert!(parse("universe { class C }").is_err());
    }

    /// A one-spec document whose trace regex is `re`.
    fn doc_with_regex(re: &str) -> String {
        format!(
            "universe {{ object o; object c; method M; }}
             spec S {{ objects {{ o }} alphabet {{ <c, o, M>; }} traces prs {re}; }}"
        )
    }

    fn nesting_error(re: &str) -> Option<LangError> {
        parse(&doc_with_regex(re)).err().filter(|e| e.message.contains("nested more than"))
    }

    #[test]
    fn regex_nesting_is_capped_at_256_levels_of_any_kind() {
        let lit = "<c, o, M>";
        let parens = |n: usize| format!("{}{lit}{}", "(".repeat(n), ")".repeat(n));
        let brackets = |n: usize| format!("{}{lit}{}", "[".repeat(n), "]".repeat(n));
        let stars = |n: usize| format!("{lit}{}", "*".repeat(n));
        for shape in [&parens as &dyn Fn(usize) -> String, &brackets, &stars] {
            assert!(parse(&doc_with_regex(&shape(MAX_REGEX_NESTING))).is_ok());
            assert!(nesting_error(&shape(MAX_REGEX_NESTING + 1)).is_some());
            // A million levels is the same error, not a stack overflow.
            assert!(nesting_error(&shape(1_000_000)).is_some());
        }
        // The error points at the first token past the cap.
        let doc = doc_with_regex(&parens(1_000_000));
        let err = parse(&doc).expect_err("too deep");
        let first = doc.find('(').expect("a parenthesis");
        assert_eq!(err.span.offset as usize, first + MAX_REGEX_NESTING, "at the 257th `(`");
        // Levels of different kinds add up along one path …
        let half = MAX_REGEX_NESTING / 2;
        let mixed = |extra: usize| {
            format!("{}{lit}{}{}", "(".repeat(half), ")*".repeat(half), "?".repeat(extra))
        };
        assert!(parse(&doc_with_regex(&mixed(0))).is_ok());
        assert!(nesting_error(&mixed(1)).is_some());
        // … but siblings do not: a long sequence is shallow.
        let wide = format!("({})*", parens(MAX_REGEX_NESTING - 2).repeat(50));
        assert!(parse(&doc_with_regex(&wide)).is_ok());
    }
}
