//! Recursive-descent parser for the Python subset.
//!
//! The parser consumes the token stream produced by [`crate::lexer`] and
//! builds a [`Module`]. It covers the statement and expression forms that
//! occur in idiomatic annotated Python: functions and classes (with
//! decorators, default arguments, `*args`/`**kwargs`, annotations),
//! assignments of all flavours, control flow, imports, comprehensions,
//! lambdas, slices, chained comparisons and conditional expressions.

use crate::ast::*;
use crate::error::{ParseError, ParseErrorKind};
use crate::lexer::tokenize;
use crate::span::Span;
use crate::token::{Token, TokenKind};

/// The result of parsing one source file: the module AST plus the exact
/// token stream it was parsed from (the graph builder needs both).
#[derive(Debug, Clone)]
pub struct Parsed {
    /// The module AST.
    pub module: Module,
    /// The token stream, including layout tokens.
    pub tokens: Vec<Token>,
}

/// Lexes and parses `source`.
///
/// # Errors
///
/// Returns the first lexical or syntactic error encountered.
pub fn parse(source: &str) -> Result<Parsed, ParseError> {
    let tokens = tokenize(source)?;
    let mut parser = Parser::new(&tokens);
    let module = parser.module()?;
    Ok(Parsed { module, tokens })
}

struct Parser<'t> {
    tokens: &'t [Token],
    pos: usize,
    next_id: u32,
}

impl<'t> Parser<'t> {
    fn new(tokens: &'t [Token]) -> Self {
        Parser {
            tokens,
            pos: 0,
            next_id: 0,
        }
    }

    fn fresh(&mut self, span: Span) -> NodeMeta {
        let id = NodeId(self.next_id);
        self.next_id += 1;
        NodeMeta { id, span }
    }

    fn peek(&self) -> &Token {
        &self.tokens[self.pos.min(self.tokens.len() - 1)]
    }

    fn peek_kind(&self) -> TokenKind {
        self.peek().kind
    }

    fn peek2_kind(&self) -> TokenKind {
        self.tokens[(self.pos + 1).min(self.tokens.len() - 1)].kind
    }

    fn at(&self, kind: TokenKind) -> bool {
        self.peek_kind() == kind
    }

    fn bump(&mut self) -> &Token {
        let t = &self.tokens[self.pos.min(self.tokens.len() - 1)];
        if self.pos < self.tokens.len() - 1 {
            self.pos += 1;
        }
        t
    }

    fn eat(&mut self, kind: TokenKind) -> bool {
        if self.at(kind) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, kind: TokenKind, context: &str) -> Result<&Token, ParseError> {
        if self.at(kind) {
            Ok(self.bump())
        } else {
            Err(self.unexpected(context))
        }
    }

    fn unexpected(&self, context: &str) -> ParseError {
        let tok = self.peek();
        let kind = if tok.kind == TokenKind::EndOfFile {
            ParseErrorKind::UnexpectedEof
        } else {
            ParseErrorKind::UnexpectedToken {
                found: tok.to_string(),
                expected: context.to_string(),
            }
        };
        ParseError::new(kind, tok.span)
    }

    fn span_here(&self) -> Span {
        self.peek().span
    }

    // ----- module and statements ------------------------------------------

    fn module(&mut self) -> Result<Module, ParseError> {
        let start = self.span_here();
        let meta_placeholder = self.fresh(start);
        let mut body = Vec::new();
        while !self.at(TokenKind::EndOfFile) {
            // Tolerate stray newlines between statements.
            if self.eat(TokenKind::Newline) {
                continue;
            }
            body.push(self.statement()?);
        }
        let end = self.span_here();
        let meta = NodeMeta {
            id: meta_placeholder.id,
            span: start.merge(end),
        };
        Ok(Module {
            body,
            meta,
            node_count: self.next_id,
        })
    }

    fn statement(&mut self) -> Result<Stmt, ParseError> {
        match self.peek_kind() {
            TokenKind::At => self.decorated(),
            TokenKind::KwDef => self.function_def(Vec::new(), false),
            TokenKind::KwAsync => {
                let start = self.span_here();
                self.bump();
                match self.peek_kind() {
                    TokenKind::KwDef => self.function_def(Vec::new(), true),
                    TokenKind::KwFor => self.for_stmt(true),
                    TokenKind::KwWith => self.with_stmt(),
                    _ => Err(ParseError::new(
                        ParseErrorKind::Unsupported("async statement".into()),
                        start,
                    )),
                }
            }
            TokenKind::KwClass => self.class_def(Vec::new()),
            TokenKind::KwIf => self.if_stmt(),
            TokenKind::KwWhile => self.while_stmt(),
            TokenKind::KwFor => self.for_stmt(false),
            TokenKind::KwTry => self.try_stmt(),
            TokenKind::KwWith => self.with_stmt(),
            _ => self.simple_stmt_line(),
        }
    }

    fn decorated(&mut self) -> Result<Stmt, ParseError> {
        let mut decorators = Vec::new();
        while self.at(TokenKind::At) {
            self.bump();
            let d = self.expression()?;
            decorators.push(d);
            self.expect(TokenKind::Newline, "newline after decorator")?;
            while self.eat(TokenKind::Newline) {}
        }
        match self.peek_kind() {
            TokenKind::KwDef => self.function_def(decorators, false),
            TokenKind::KwAsync => {
                self.bump();
                self.function_def(decorators, true)
            }
            TokenKind::KwClass => self.class_def(decorators),
            _ => Err(self.unexpected("function or class after decorator")),
        }
    }

    fn function_def(&mut self, decorators: Vec<Expr>, is_async: bool) -> Result<Stmt, ParseError> {
        let start = self.span_here();
        let meta = self.fresh(start);
        self.expect(TokenKind::KwDef, "`def`")?;
        let name_tok = self.expect(TokenKind::Name, "function name")?;
        let name = name_tok.lexeme.clone();
        let name_span = name_tok.span;
        self.expect(TokenKind::LParen, "`(` after function name")?;
        let params = self.param_list()?;
        self.expect(TokenKind::RParen, "`)` after parameters")?;
        let returns = if self.eat(TokenKind::Arrow) {
            Some(self.expression()?)
        } else {
            None
        };
        self.expect(TokenKind::Colon, "`:` before function body")?;
        let body = self.block()?;
        let end = body.last().map(|s| s.meta.span).unwrap_or(start);
        let meta = NodeMeta {
            id: meta.id,
            span: start.merge(end),
        };
        Ok(Stmt {
            meta,
            kind: StmtKind::FunctionDef(FunctionDef {
                name,
                name_span,
                params,
                returns,
                body,
                decorators,
                is_async,
            }),
        })
    }

    fn param_list(&mut self) -> Result<Vec<Param>, ParseError> {
        let mut params = Vec::new();
        let mut kw_only = false;
        while !self.at(TokenKind::RParen) {
            if self.eat(TokenKind::Star) {
                if self.at(TokenKind::Comma) || self.at(TokenKind::RParen) {
                    kw_only = true; // bare `*`
                } else {
                    params.push(self.param(ParamKind::VarArgs)?);
                    kw_only = true;
                }
            } else if self.eat(TokenKind::DoubleStar) {
                params.push(self.param(ParamKind::KwArgs)?);
            } else if self.eat(TokenKind::Slash) {
                // Positional-only marker: accepted and ignored.
            } else {
                let kind = if kw_only {
                    ParamKind::KwOnly
                } else {
                    ParamKind::Plain
                };
                params.push(self.param(kind)?);
            }
            if !self.eat(TokenKind::Comma) {
                break;
            }
        }
        Ok(params)
    }

    fn param(&mut self, kind: ParamKind) -> Result<Param, ParseError> {
        let name_tok = self.expect(TokenKind::Name, "parameter name")?;
        let name = name_tok.lexeme.clone();
        let name_span = name_tok.span;
        let annotation = if self.eat(TokenKind::Colon) {
            Some(self.expression()?)
        } else {
            None
        };
        let default = if self.eat(TokenKind::Assign) {
            Some(self.expression()?)
        } else {
            None
        };
        Ok(Param {
            name,
            name_span,
            annotation,
            default,
            kind,
        })
    }

    fn class_def(&mut self, decorators: Vec<Expr>) -> Result<Stmt, ParseError> {
        let start = self.span_here();
        let meta = self.fresh(start);
        self.expect(TokenKind::KwClass, "`class`")?;
        let name_tok = self.expect(TokenKind::Name, "class name")?;
        let name = name_tok.lexeme.clone();
        let name_span = name_tok.span;
        let mut bases = Vec::new();
        let mut keywords = Vec::new();
        if self.eat(TokenKind::LParen) {
            while !self.at(TokenKind::RParen) {
                if self.at(TokenKind::Name) && self.peek2_kind() == TokenKind::Assign {
                    let kw_name = self.bump().lexeme.clone();
                    self.bump(); // `=`
                    let value = self.expression()?;
                    keywords.push(Keyword {
                        arg: Some(kw_name),
                        value,
                    });
                } else {
                    bases.push(self.expression()?);
                }
                if !self.eat(TokenKind::Comma) {
                    break;
                }
            }
            self.expect(TokenKind::RParen, "`)` after base classes")?;
        }
        self.expect(TokenKind::Colon, "`:` before class body")?;
        let body = self.block()?;
        let end = body.last().map(|s| s.meta.span).unwrap_or(start);
        let meta = NodeMeta {
            id: meta.id,
            span: start.merge(end),
        };
        Ok(Stmt {
            meta,
            kind: StmtKind::ClassDef(ClassDef {
                name,
                name_span,
                bases,
                keywords,
                body,
                decorators,
            }),
        })
    }

    fn block(&mut self) -> Result<Vec<Stmt>, ParseError> {
        if self.eat(TokenKind::Newline) {
            self.expect(TokenKind::Indent, "indented block")?;
            let mut body = Vec::new();
            while !self.at(TokenKind::Dedent) && !self.at(TokenKind::EndOfFile) {
                if self.eat(TokenKind::Newline) {
                    continue;
                }
                body.push(self.statement()?);
            }
            self.expect(TokenKind::Dedent, "dedent closing block")?;
            Ok(body)
        } else {
            // Inline suite: `if x: pass` on one line.
            self.simple_stmt_line().map(|s| vec![s])
        }
    }

    fn if_stmt(&mut self) -> Result<Stmt, ParseError> {
        let start = self.span_here();
        let meta = self.fresh(start);
        self.bump(); // if / elif
        let test = self.expression()?;
        self.expect(TokenKind::Colon, "`:` after if condition")?;
        let body = self.block()?;
        let orelse = if self.at(TokenKind::KwElif) {
            vec![self.if_stmt()?]
        } else if self.eat(TokenKind::KwElse) {
            self.expect(TokenKind::Colon, "`:` after else")?;
            self.block()?
        } else {
            Vec::new()
        };
        let end = orelse
            .last()
            .map(|s| s.meta.span)
            .or_else(|| body.last().map(|s| s.meta.span))
            .unwrap_or(start);
        let meta = NodeMeta {
            id: meta.id,
            span: start.merge(end),
        };
        Ok(Stmt {
            meta,
            kind: StmtKind::If { test, body, orelse },
        })
    }

    fn while_stmt(&mut self) -> Result<Stmt, ParseError> {
        let start = self.span_here();
        let meta = self.fresh(start);
        self.bump();
        let test = self.expression()?;
        self.expect(TokenKind::Colon, "`:` after while condition")?;
        let body = self.block()?;
        let orelse = if self.eat(TokenKind::KwElse) {
            self.expect(TokenKind::Colon, "`:` after else")?;
            self.block()?
        } else {
            Vec::new()
        };
        let end = body.last().map(|s| s.meta.span).unwrap_or(start);
        let meta = NodeMeta {
            id: meta.id,
            span: start.merge(end),
        };
        Ok(Stmt {
            meta,
            kind: StmtKind::While { test, body, orelse },
        })
    }

    fn for_stmt(&mut self, is_async: bool) -> Result<Stmt, ParseError> {
        let start = self.span_here();
        let meta = self.fresh(start);
        self.expect(TokenKind::KwFor, "`for`")?;
        let target = self.target_list()?;
        self.expect(TokenKind::KwIn, "`in` in for statement")?;
        let iter = self.expression_list()?;
        self.expect(TokenKind::Colon, "`:` after for header")?;
        let body = self.block()?;
        let orelse = if self.eat(TokenKind::KwElse) {
            self.expect(TokenKind::Colon, "`:` after else")?;
            self.block()?
        } else {
            Vec::new()
        };
        let end = body.last().map(|s| s.meta.span).unwrap_or(start);
        let meta = NodeMeta {
            id: meta.id,
            span: start.merge(end),
        };
        Ok(Stmt {
            meta,
            kind: StmtKind::For {
                target,
                iter,
                body,
                orelse,
                is_async,
            },
        })
    }

    fn try_stmt(&mut self) -> Result<Stmt, ParseError> {
        let start = self.span_here();
        let meta = self.fresh(start);
        self.bump();
        self.expect(TokenKind::Colon, "`:` after try")?;
        let body = self.block()?;
        let mut handlers = Vec::new();
        while self.at(TokenKind::KwExcept) {
            self.bump();
            let mut exc_type = None;
            let mut name = None;
            let mut name_span = None;
            if !self.at(TokenKind::Colon) {
                exc_type = Some(self.expression()?);
                if self.eat(TokenKind::KwAs) {
                    let t = self.expect(TokenKind::Name, "name after `as`")?;
                    name = Some(t.lexeme.clone());
                    name_span = Some(t.span);
                }
            }
            self.expect(TokenKind::Colon, "`:` after except clause")?;
            let hbody = self.block()?;
            handlers.push(ExceptHandler {
                exc_type,
                name,
                name_span,
                body: hbody,
            });
        }
        let orelse = if self.eat(TokenKind::KwElse) {
            self.expect(TokenKind::Colon, "`:` after else")?;
            self.block()?
        } else {
            Vec::new()
        };
        let finalbody = if self.eat(TokenKind::KwFinally) {
            self.expect(TokenKind::Colon, "`:` after finally")?;
            self.block()?
        } else {
            Vec::new()
        };
        let end = body.last().map(|s| s.meta.span).unwrap_or(start);
        let meta = NodeMeta {
            id: meta.id,
            span: start.merge(end),
        };
        Ok(Stmt {
            meta,
            kind: StmtKind::Try {
                body,
                handlers,
                orelse,
                finalbody,
            },
        })
    }

    fn with_stmt(&mut self) -> Result<Stmt, ParseError> {
        let start = self.span_here();
        let meta = self.fresh(start);
        self.expect(TokenKind::KwWith, "`with`")?;
        let mut items = Vec::new();
        loop {
            let context = self.expression()?;
            let target = if self.eat(TokenKind::KwAs) {
                Some(self.primary_target()?)
            } else {
                None
            };
            items.push(WithItem { context, target });
            if !self.eat(TokenKind::Comma) {
                break;
            }
        }
        self.expect(TokenKind::Colon, "`:` after with items")?;
        let body = self.block()?;
        let end = body.last().map(|s| s.meta.span).unwrap_or(start);
        let meta = NodeMeta {
            id: meta.id,
            span: start.merge(end),
        };
        Ok(Stmt {
            meta,
            kind: StmtKind::With { items, body },
        })
    }

    fn simple_stmt_line(&mut self) -> Result<Stmt, ParseError> {
        let first = self.small_stmt()?;
        // A trailing semicolon is tolerated; genuine multi-statement
        // lines (`a; b`) are outside the supported subset.
        if self.eat(TokenKind::Semicolon)
            && !self.at(TokenKind::Newline)
            && !self.at(TokenKind::EndOfFile)
        {
            return Err(ParseError::new(
                ParseErrorKind::Unsupported("multiple statements on one line".into()),
                self.span_here(),
            ));
        }
        self.eat(TokenKind::Newline);
        Ok(first)
    }

    fn small_stmt(&mut self) -> Result<Stmt, ParseError> {
        let start = self.span_here();
        match self.peek_kind() {
            TokenKind::KwReturn => {
                let meta = self.fresh(start);
                self.bump();
                let value = if self.at(TokenKind::Newline)
                    || self.at(TokenKind::Semicolon)
                    || self.at(TokenKind::EndOfFile)
                {
                    None
                } else {
                    Some(self.expression_list()?)
                };
                let span = value
                    .as_ref()
                    .map(|v| start.merge(v.meta.span))
                    .unwrap_or(start);
                Ok(Stmt {
                    meta: NodeMeta { id: meta.id, span },
                    kind: StmtKind::Return(value),
                })
            }
            TokenKind::KwPass => {
                let meta = self.fresh(start);
                self.bump();
                Ok(Stmt {
                    meta,
                    kind: StmtKind::Pass,
                })
            }
            TokenKind::KwBreak => {
                let meta = self.fresh(start);
                self.bump();
                Ok(Stmt {
                    meta,
                    kind: StmtKind::Break,
                })
            }
            TokenKind::KwContinue => {
                let meta = self.fresh(start);
                self.bump();
                Ok(Stmt {
                    meta,
                    kind: StmtKind::Continue,
                })
            }
            TokenKind::KwImport => self.import_stmt(),
            TokenKind::KwFrom => self.import_from_stmt(),
            TokenKind::KwGlobal | TokenKind::KwNonlocal => {
                let is_global = self.at(TokenKind::KwGlobal);
                let meta = self.fresh(start);
                self.bump();
                let mut names = Vec::new();
                loop {
                    names.push(self.expect(TokenKind::Name, "name")?.lexeme.clone());
                    if !self.eat(TokenKind::Comma) {
                        break;
                    }
                }
                let kind = if is_global {
                    StmtKind::Global(names)
                } else {
                    StmtKind::Nonlocal(names)
                };
                Ok(Stmt { meta, kind })
            }
            TokenKind::KwDel => {
                let meta = self.fresh(start);
                self.bump();
                let mut targets = Vec::new();
                loop {
                    targets.push(self.primary_target()?);
                    if !self.eat(TokenKind::Comma) {
                        break;
                    }
                }
                Ok(Stmt {
                    meta,
                    kind: StmtKind::Delete(targets),
                })
            }
            TokenKind::KwRaise => {
                let meta = self.fresh(start);
                self.bump();
                let mut exc = None;
                let mut cause = None;
                if !self.at(TokenKind::Newline) && !self.at(TokenKind::EndOfFile) {
                    exc = Some(self.expression()?);
                    if self.at(TokenKind::KwFrom) {
                        self.bump();
                        cause = Some(self.expression()?);
                    }
                }
                Ok(Stmt {
                    meta,
                    kind: StmtKind::Raise { exc, cause },
                })
            }
            TokenKind::KwAssert => {
                let meta = self.fresh(start);
                self.bump();
                let test = self.expression()?;
                let msg = if self.eat(TokenKind::Comma) {
                    Some(self.expression()?)
                } else {
                    None
                };
                Ok(Stmt {
                    meta,
                    kind: StmtKind::Assert { test, msg },
                })
            }
            _ => self.expr_stmt(),
        }
    }

    fn import_stmt(&mut self) -> Result<Stmt, ParseError> {
        let start = self.span_here();
        let meta = self.fresh(start);
        self.expect(TokenKind::KwImport, "`import`")?;
        let mut names = Vec::new();
        loop {
            names.push(self.import_alias()?);
            if !self.eat(TokenKind::Comma) {
                break;
            }
        }
        Ok(Stmt {
            meta,
            kind: StmtKind::Import(names),
        })
    }

    fn import_alias(&mut self) -> Result<Alias, ParseError> {
        let first = self.expect(TokenKind::Name, "module name")?;
        let first_span = first.span;
        let mut name = first.lexeme.clone();
        while self.eat(TokenKind::Dot) {
            let part = self.expect(TokenKind::Name, "dotted name component")?;
            name.push('.');
            name.push_str(&part.lexeme);
        }
        if self.eat(TokenKind::KwAs) {
            let t = self.expect(TokenKind::Name, "alias name")?;
            Ok(Alias {
                name,
                asname: Some(t.lexeme.clone()),
                bind_span: t.span,
            })
        } else {
            Ok(Alias {
                name,
                asname: None,
                bind_span: first_span,
            })
        }
    }

    fn import_from_stmt(&mut self) -> Result<Stmt, ParseError> {
        let start = self.span_here();
        let meta = self.fresh(start);
        self.expect(TokenKind::KwFrom, "`from`")?;
        let mut level = 0u32;
        while self.at(TokenKind::Dot) || self.at(TokenKind::Ellipsis) {
            level += if self.at(TokenKind::Ellipsis) { 3 } else { 1 };
            self.bump();
        }
        let mut module = String::new();
        if self.at(TokenKind::Name) {
            module = self.bump().lexeme.clone();
            while self.eat(TokenKind::Dot) {
                let part = self.expect(TokenKind::Name, "dotted module component")?;
                module.push('.');
                module.push_str(&part.lexeme);
            }
        }
        self.expect(TokenKind::KwImport, "`import` in from-import")?;
        let mut names = Vec::new();
        if self.at(TokenKind::Star) {
            let t = self.bump();
            names.push(Alias {
                name: "*".into(),
                asname: None,
                bind_span: t.span,
            });
        } else {
            let parenthesised = self.eat(TokenKind::LParen);
            loop {
                if parenthesised {
                    while self.eat(TokenKind::Newline) {}
                }
                names.push(self.import_alias()?);
                if !self.eat(TokenKind::Comma) {
                    break;
                }
                if parenthesised {
                    while self.eat(TokenKind::Newline) {}
                    if self.at(TokenKind::RParen) {
                        break;
                    }
                }
            }
            if parenthesised {
                self.expect(TokenKind::RParen, "`)` closing import list")?;
            }
        }
        Ok(Stmt {
            meta,
            kind: StmtKind::ImportFrom {
                module,
                names,
                level,
            },
        })
    }

    fn expr_stmt(&mut self) -> Result<Stmt, ParseError> {
        let start = self.span_here();
        let meta = self.fresh(start);
        let first = self.expression_list()?;
        match self.peek_kind() {
            TokenKind::Colon => {
                self.bump();
                let annotation = self.expression()?;
                let value = if self.eat(TokenKind::Assign) {
                    Some(self.expression_list()?)
                } else {
                    None
                };
                let end = value
                    .as_ref()
                    .map(|v| v.meta.span)
                    .unwrap_or(annotation.meta.span);
                let meta = NodeMeta {
                    id: meta.id,
                    span: start.merge(end),
                };
                Ok(Stmt {
                    meta,
                    kind: StmtKind::AnnAssign {
                        target: first,
                        annotation,
                        value,
                    },
                })
            }
            TokenKind::Assign => {
                let mut targets = vec![first];
                let mut value = None;
                while self.eat(TokenKind::Assign) {
                    let e = self.expression_list()?;
                    if self.at(TokenKind::Assign) {
                        targets.push(e);
                    } else {
                        value = Some(e);
                    }
                }
                let value = value.ok_or_else(|| self.unexpected("assignment value"))?;
                let end = value.meta.span;
                let meta = NodeMeta {
                    id: meta.id,
                    span: start.merge(end),
                };
                Ok(Stmt {
                    meta,
                    kind: StmtKind::Assign { targets, value },
                })
            }
            TokenKind::AugAssign => {
                let op_tok = self.bump();
                let mut op = op_tok.lexeme.clone();
                op.pop(); // strip the trailing `=`
                let value = self.expression_list()?;
                let end = value.meta.span;
                let meta = NodeMeta {
                    id: meta.id,
                    span: start.merge(end),
                };
                Ok(Stmt {
                    meta,
                    kind: StmtKind::AugAssign {
                        target: first,
                        op,
                        value,
                    },
                })
            }
            _ => {
                let meta = NodeMeta {
                    id: meta.id,
                    span: first.meta.span,
                };
                Ok(Stmt {
                    meta,
                    kind: StmtKind::Expr(first),
                })
            }
        }
    }

    // ----- expressions ------------------------------------------------------

    /// `a, b, c` — a comma-separated list parsed as a tuple when more than
    /// one element is present.
    fn expression_list(&mut self) -> Result<Expr, ParseError> {
        let start = self.span_here();
        let first = self.expression()?;
        if !self.at(TokenKind::Comma) {
            return Ok(first);
        }
        let meta = self.fresh(start);
        let mut items = vec![first];
        while self.eat(TokenKind::Comma) {
            if self.starts_expression() {
                items.push(self.expression()?);
            } else {
                break; // trailing comma
            }
        }
        let end = items.last().map(|e| e.meta.span).unwrap_or(start);
        let meta = NodeMeta {
            id: meta.id,
            span: start.merge(end),
        };
        Ok(Expr {
            meta,
            kind: ExprKind::Tuple(items),
        })
    }

    fn target_list(&mut self) -> Result<Expr, ParseError> {
        // For-loop targets must stop before the `in` keyword, so they are
        // parsed at postfix level (names, attributes, subscripts, tuples),
        // never as comparisons.
        self.comp_target()
    }

    fn primary_target(&mut self) -> Result<Expr, ParseError> {
        // `with ... as target` / `del target`: a postfix expression.
        self.expression()
    }

    fn starts_expression(&self) -> bool {
        use TokenKind::*;
        matches!(
            self.peek_kind(),
            Name | Number
                | Str
                | KwTrue
                | KwFalse
                | KwNone
                | KwNot
                | KwLambda
                | KwAwait
                | KwYield
                | LParen
                | LBracket
                | LBrace
                | Plus
                | Minus
                | Tilde
                | Star
                | DoubleStar
                | Ellipsis
        )
    }

    /// Top-level single expression (a `test` in CPython grammar terms),
    /// including conditional expressions, lambdas and yields.
    pub(crate) fn expression(&mut self) -> Result<Expr, ParseError> {
        match self.peek_kind() {
            TokenKind::KwLambda => self.lambda(),
            TokenKind::KwYield => self.yield_expr(),
            _ => {
                let start = self.span_here();
                let body = self.or_expr()?;
                if self.at(TokenKind::KwIf) {
                    let meta = self.fresh(start);
                    self.bump();
                    let test = self.or_expr()?;
                    self.expect(TokenKind::KwElse, "`else` in conditional expression")?;
                    let orelse = self.expression()?;
                    let span = start.merge(orelse.meta.span);
                    Ok(Expr {
                        meta: NodeMeta { id: meta.id, span },
                        kind: ExprKind::IfExp {
                            test: Box::new(test),
                            body: Box::new(body),
                            orelse: Box::new(orelse),
                        },
                    })
                } else if self.at(TokenKind::Walrus) {
                    let meta = self.fresh(start);
                    self.bump();
                    let value = self.expression()?;
                    let span = start.merge(value.meta.span);
                    Ok(Expr {
                        meta: NodeMeta { id: meta.id, span },
                        kind: ExprKind::Walrus {
                            target: Box::new(body),
                            value: Box::new(value),
                        },
                    })
                } else {
                    Ok(body)
                }
            }
        }
    }

    fn lambda(&mut self) -> Result<Expr, ParseError> {
        let start = self.span_here();
        let meta = self.fresh(start);
        self.expect(TokenKind::KwLambda, "`lambda`")?;
        let mut params = Vec::new();
        while self.at(TokenKind::Name) || self.at(TokenKind::Star) || self.at(TokenKind::DoubleStar)
        {
            if self.eat(TokenKind::Star) {
                if self.at(TokenKind::Name) {
                    params.push(self.lambda_param(ParamKind::VarArgs)?);
                }
            } else if self.eat(TokenKind::DoubleStar) {
                params.push(self.lambda_param(ParamKind::KwArgs)?);
            } else {
                params.push(self.lambda_param(ParamKind::Plain)?);
            }
            if !self.eat(TokenKind::Comma) {
                break;
            }
        }
        self.expect(TokenKind::Colon, "`:` after lambda parameters")?;
        let body = self.expression()?;
        let span = start.merge(body.meta.span);
        Ok(Expr {
            meta: NodeMeta { id: meta.id, span },
            kind: ExprKind::Lambda {
                params,
                body: Box::new(body),
            },
        })
    }

    fn lambda_param(&mut self, kind: ParamKind) -> Result<Param, ParseError> {
        let t = self.expect(TokenKind::Name, "lambda parameter")?;
        let name = t.lexeme.clone();
        let name_span = t.span;
        let default = if self.eat(TokenKind::Assign) {
            Some(self.expression()?)
        } else {
            None
        };
        Ok(Param {
            name,
            name_span,
            annotation: None,
            default,
            kind,
        })
    }

    fn yield_expr(&mut self) -> Result<Expr, ParseError> {
        let start = self.span_here();
        let meta = self.fresh(start);
        self.expect(TokenKind::KwYield, "`yield`")?;
        if self.at(TokenKind::KwFrom) {
            self.bump();
            let value = self.expression()?;
            let span = start.merge(value.meta.span);
            Ok(Expr {
                meta: NodeMeta { id: meta.id, span },
                kind: ExprKind::YieldFrom(Box::new(value)),
            })
        } else if self.starts_expression() {
            let value = self.expression_list()?;
            let span = start.merge(value.meta.span);
            Ok(Expr {
                meta: NodeMeta { id: meta.id, span },
                kind: ExprKind::Yield(Some(Box::new(value))),
            })
        } else {
            Ok(Expr {
                meta,
                kind: ExprKind::Yield(None),
            })
        }
    }

    fn or_expr(&mut self) -> Result<Expr, ParseError> {
        let start = self.span_here();
        let first = self.and_expr()?;
        if !self.at(TokenKind::KwOr) {
            return Ok(first);
        }
        let meta = self.fresh(start);
        let mut values = vec![first];
        while self.eat(TokenKind::KwOr) {
            values.push(self.and_expr()?);
        }
        let span = start.merge(values.last().expect("nonempty").meta.span);
        Ok(Expr {
            meta: NodeMeta { id: meta.id, span },
            kind: ExprKind::BoolOp {
                op: BoolOp::Or,
                values,
            },
        })
    }

    fn and_expr(&mut self) -> Result<Expr, ParseError> {
        let start = self.span_here();
        let first = self.not_expr()?;
        if !self.at(TokenKind::KwAnd) {
            return Ok(first);
        }
        let meta = self.fresh(start);
        let mut values = vec![first];
        while self.eat(TokenKind::KwAnd) {
            values.push(self.not_expr()?);
        }
        let span = start.merge(values.last().expect("nonempty").meta.span);
        Ok(Expr {
            meta: NodeMeta { id: meta.id, span },
            kind: ExprKind::BoolOp {
                op: BoolOp::And,
                values,
            },
        })
    }

    fn not_expr(&mut self) -> Result<Expr, ParseError> {
        if self.at(TokenKind::KwNot) {
            let start = self.span_here();
            let meta = self.fresh(start);
            self.bump();
            let operand = self.not_expr()?;
            let span = start.merge(operand.meta.span);
            Ok(Expr {
                meta: NodeMeta { id: meta.id, span },
                kind: ExprKind::UnaryOp {
                    op: UnaryOp::Not,
                    operand: Box::new(operand),
                },
            })
        } else {
            self.comparison()
        }
    }

    fn comparison(&mut self) -> Result<Expr, ParseError> {
        let start = self.span_here();
        let left = self.bitor_expr()?;
        let mut ops = Vec::new();
        let mut comparators = Vec::new();
        loop {
            let op = match self.peek_kind() {
                TokenKind::EqEq => CmpOp::Eq,
                TokenKind::NotEq => CmpOp::NotEq,
                TokenKind::Lt => CmpOp::Lt,
                TokenKind::Le => CmpOp::Le,
                TokenKind::Gt => CmpOp::Gt,
                TokenKind::Ge => CmpOp::Ge,
                TokenKind::KwIn => CmpOp::In,
                TokenKind::KwIs => {
                    self.bump();
                    if self.eat(TokenKind::KwNot) {
                        ops.push(CmpOp::IsNot);
                    } else {
                        ops.push(CmpOp::Is);
                    }
                    comparators.push(self.bitor_expr()?);
                    continue;
                }
                TokenKind::KwNot if self.peek2_kind() == TokenKind::KwIn => {
                    self.bump();
                    self.bump();
                    ops.push(CmpOp::NotIn);
                    comparators.push(self.bitor_expr()?);
                    continue;
                }
                _ => break,
            };
            self.bump();
            ops.push(op);
            comparators.push(self.bitor_expr()?);
        }
        if ops.is_empty() {
            return Ok(left);
        }
        let meta = self.fresh(start);
        let span = start.merge(comparators.last().expect("nonempty").meta.span);
        Ok(Expr {
            meta: NodeMeta { id: meta.id, span },
            kind: ExprKind::Compare {
                left: Box::new(left),
                ops,
                comparators,
            },
        })
    }

    fn binary_level<F>(&mut self, next: F, table: &[(TokenKind, BinOp)]) -> Result<Expr, ParseError>
    where
        F: Fn(&mut Self) -> Result<Expr, ParseError>,
    {
        let start = self.span_here();
        let mut left = next(self)?;
        'outer: loop {
            for &(tok, op) in table {
                if self.at(tok) {
                    let meta = self.fresh(start);
                    self.bump();
                    let right = next(self)?;
                    let span = start.merge(right.meta.span);
                    left = Expr {
                        meta: NodeMeta { id: meta.id, span },
                        kind: ExprKind::BinOp {
                            left: Box::new(left),
                            op,
                            right: Box::new(right),
                        },
                    };
                    continue 'outer;
                }
            }
            break;
        }
        Ok(left)
    }

    fn bitor_expr(&mut self) -> Result<Expr, ParseError> {
        self.binary_level(Self::bitxor_expr, &[(TokenKind::Pipe, BinOp::BitOr)])
    }

    fn bitxor_expr(&mut self) -> Result<Expr, ParseError> {
        self.binary_level(Self::bitand_expr, &[(TokenKind::Caret, BinOp::BitXor)])
    }

    fn bitand_expr(&mut self) -> Result<Expr, ParseError> {
        self.binary_level(Self::shift_expr, &[(TokenKind::Amp, BinOp::BitAnd)])
    }

    fn shift_expr(&mut self) -> Result<Expr, ParseError> {
        self.binary_level(
            Self::arith_expr,
            &[
                (TokenKind::LShift, BinOp::LShift),
                (TokenKind::RShift, BinOp::RShift),
            ],
        )
    }

    fn arith_expr(&mut self) -> Result<Expr, ParseError> {
        self.binary_level(
            Self::term_expr,
            &[
                (TokenKind::Plus, BinOp::Add),
                (TokenKind::Minus, BinOp::Sub),
            ],
        )
    }

    fn term_expr(&mut self) -> Result<Expr, ParseError> {
        self.binary_level(
            Self::unary_expr,
            &[
                (TokenKind::Star, BinOp::Mul),
                (TokenKind::Slash, BinOp::Div),
                (TokenKind::DoubleSlash, BinOp::FloorDiv),
                (TokenKind::Percent, BinOp::Mod),
                (TokenKind::At, BinOp::MatMul),
            ],
        )
    }

    fn unary_expr(&mut self) -> Result<Expr, ParseError> {
        let start = self.span_here();
        let op = match self.peek_kind() {
            TokenKind::Minus => Some(UnaryOp::Neg),
            TokenKind::Plus => Some(UnaryOp::Pos),
            TokenKind::Tilde => Some(UnaryOp::Invert),
            _ => None,
        };
        if let Some(op) = op {
            let meta = self.fresh(start);
            self.bump();
            let operand = self.unary_expr()?;
            let span = start.merge(operand.meta.span);
            Ok(Expr {
                meta: NodeMeta { id: meta.id, span },
                kind: ExprKind::UnaryOp {
                    op,
                    operand: Box::new(operand),
                },
            })
        } else {
            self.power_expr()
        }
    }

    fn power_expr(&mut self) -> Result<Expr, ParseError> {
        let start = self.span_here();
        let base = self.postfix_expr()?;
        if self.at(TokenKind::DoubleStar) {
            let meta = self.fresh(start);
            self.bump();
            let exp = self.unary_expr()?;
            let span = start.merge(exp.meta.span);
            Ok(Expr {
                meta: NodeMeta { id: meta.id, span },
                kind: ExprKind::BinOp {
                    left: Box::new(base),
                    op: BinOp::Pow,
                    right: Box::new(exp),
                },
            })
        } else {
            Ok(base)
        }
    }

    fn postfix_expr(&mut self) -> Result<Expr, ParseError> {
        if self.at(TokenKind::KwAwait) {
            let start = self.span_here();
            let meta = self.fresh(start);
            self.bump();
            let operand = self.postfix_expr()?;
            let span = start.merge(operand.meta.span);
            return Ok(Expr {
                meta: NodeMeta { id: meta.id, span },
                kind: ExprKind::Await(Box::new(operand)),
            });
        }
        let start = self.span_here();
        let mut expr = self.atom()?;
        loop {
            match self.peek_kind() {
                TokenKind::Dot => {
                    let meta = self.fresh(start);
                    self.bump();
                    let attr_tok = self.expect(TokenKind::Name, "attribute name")?;
                    let attr = attr_tok.lexeme.clone();
                    let attr_span = attr_tok.span;
                    let span = start.merge(attr_span);
                    expr = Expr {
                        meta: NodeMeta { id: meta.id, span },
                        kind: ExprKind::Attribute {
                            value: Box::new(expr),
                            attr,
                            attr_span,
                        },
                    };
                }
                TokenKind::LParen => {
                    let meta = self.fresh(start);
                    self.bump();
                    let (args, keywords) = self.call_args()?;
                    let close = self.expect(TokenKind::RParen, "`)` closing call")?.span;
                    let span = start.merge(close);
                    expr = Expr {
                        meta: NodeMeta { id: meta.id, span },
                        kind: ExprKind::Call {
                            func: Box::new(expr),
                            args,
                            keywords,
                        },
                    };
                }
                TokenKind::LBracket => {
                    let meta = self.fresh(start);
                    self.bump();
                    let index = self.subscript_index()?;
                    let close = self
                        .expect(TokenKind::RBracket, "`]` closing subscript")?
                        .span;
                    let span = start.merge(close);
                    expr = Expr {
                        meta: NodeMeta { id: meta.id, span },
                        kind: ExprKind::Subscript {
                            value: Box::new(expr),
                            index: Box::new(index),
                        },
                    };
                }
                _ => break,
            }
        }
        Ok(expr)
    }

    fn call_args(&mut self) -> Result<(Vec<Expr>, Vec<Keyword>), ParseError> {
        let mut args = Vec::new();
        let mut keywords = Vec::new();
        while !self.at(TokenKind::RParen) {
            if self.at(TokenKind::DoubleStar) {
                self.bump();
                let value = self.expression()?;
                keywords.push(Keyword { arg: None, value });
            } else if self.at(TokenKind::Star) {
                let start = self.span_here();
                let meta = self.fresh(start);
                self.bump();
                let inner = self.expression()?;
                let span = start.merge(inner.meta.span);
                args.push(Expr {
                    meta: NodeMeta { id: meta.id, span },
                    kind: ExprKind::Starred(Box::new(inner)),
                });
            } else if self.at(TokenKind::Name) && self.peek2_kind() == TokenKind::Assign {
                let name = self.bump().lexeme.clone();
                self.bump(); // `=`
                let value = self.expression()?;
                keywords.push(Keyword {
                    arg: Some(name),
                    value,
                });
            } else {
                let e = self.expression()?;
                // Generator argument: f(x for x in xs).
                if self.at(TokenKind::KwFor) {
                    let comp = self.comprehension_tail(CompKind::Generator, e, None)?;
                    args.push(comp);
                } else {
                    args.push(e);
                }
            }
            if !self.eat(TokenKind::Comma) {
                break;
            }
        }
        Ok((args, keywords))
    }

    fn subscript_index(&mut self) -> Result<Expr, ParseError> {
        let start = self.span_here();
        let first = self.slice_item()?;
        if !self.at(TokenKind::Comma) {
            return Ok(first);
        }
        let meta = self.fresh(start);
        let mut items = vec![first];
        while self.eat(TokenKind::Comma) {
            if self.at(TokenKind::RBracket) {
                break;
            }
            items.push(self.slice_item()?);
        }
        let span = start.merge(items.last().expect("nonempty").meta.span);
        Ok(Expr {
            meta: NodeMeta { id: meta.id, span },
            kind: ExprKind::Tuple(items),
        })
    }

    fn slice_item(&mut self) -> Result<Expr, ParseError> {
        let start = self.span_here();
        let lower = if self.at(TokenKind::Colon) {
            None
        } else {
            Some(Box::new(self.expression()?))
        };
        if !self.at(TokenKind::Colon) {
            return Ok(*lower.expect("either lower bound or colon"));
        }
        let meta = self.fresh(start);
        self.bump(); // first `:`
        let upper = if self.at(TokenKind::Colon)
            || self.at(TokenKind::RBracket)
            || self.at(TokenKind::Comma)
        {
            None
        } else {
            Some(Box::new(self.expression()?))
        };
        let step = if self.eat(TokenKind::Colon) {
            if self.at(TokenKind::RBracket) || self.at(TokenKind::Comma) {
                None
            } else {
                Some(Box::new(self.expression()?))
            }
        } else {
            None
        };
        let end = self.span_here();
        Ok(Expr {
            meta: NodeMeta {
                id: meta.id,
                span: start.merge(end),
            },
            kind: ExprKind::Slice { lower, upper, step },
        })
    }

    fn atom(&mut self) -> Result<Expr, ParseError> {
        let start = self.span_here();
        match self.peek_kind() {
            TokenKind::Name => {
                let meta = self.fresh(start);
                let name = self.bump().lexeme.clone();
                Ok(Expr {
                    meta,
                    kind: ExprKind::Name(name),
                })
            }
            TokenKind::Number => {
                let meta = self.fresh(start);
                let n = self.bump().lexeme.clone();
                Ok(Expr {
                    meta,
                    kind: ExprKind::Num(n),
                })
            }
            TokenKind::Str => {
                let meta = self.fresh(start);
                let mut s = self.bump().lexeme.clone();
                let is_fstring = s
                    .bytes()
                    .take_while(|b| !matches!(b, b'"' | b'\''))
                    .any(|b| matches!(b.to_ascii_lowercase(), b'f'));
                // Adjacent string literals concatenate.
                let mut end = start;
                while self.at(TokenKind::Str) {
                    let t = self.bump();
                    end = t.span;
                    s.push_str(&t.lexeme);
                }
                let meta = NodeMeta {
                    id: meta.id,
                    span: start.merge(end),
                };
                if is_fstring {
                    Ok(Expr {
                        meta,
                        kind: ExprKind::FString(s),
                    })
                } else {
                    Ok(Expr {
                        meta,
                        kind: ExprKind::Str(s),
                    })
                }
            }
            TokenKind::KwTrue => {
                let meta = self.fresh(start);
                self.bump();
                Ok(Expr {
                    meta,
                    kind: ExprKind::Bool(true),
                })
            }
            TokenKind::KwFalse => {
                let meta = self.fresh(start);
                self.bump();
                Ok(Expr {
                    meta,
                    kind: ExprKind::Bool(false),
                })
            }
            TokenKind::KwNone => {
                let meta = self.fresh(start);
                self.bump();
                Ok(Expr {
                    meta,
                    kind: ExprKind::NoneLit,
                })
            }
            TokenKind::Ellipsis => {
                let meta = self.fresh(start);
                self.bump();
                Ok(Expr {
                    meta,
                    kind: ExprKind::EllipsisLit,
                })
            }
            TokenKind::LParen => self.paren_atom(),
            TokenKind::LBracket => self.list_atom(),
            TokenKind::LBrace => self.brace_atom(),
            TokenKind::Star => {
                let meta = self.fresh(start);
                self.bump();
                let inner = self.expression()?;
                let span = start.merge(inner.meta.span);
                Ok(Expr {
                    meta: NodeMeta { id: meta.id, span },
                    kind: ExprKind::Starred(Box::new(inner)),
                })
            }
            TokenKind::KwLambda => self.lambda(),
            _ => Err(self.unexpected("expression")),
        }
    }

    fn paren_atom(&mut self) -> Result<Expr, ParseError> {
        let start = self.span_here();
        self.expect(TokenKind::LParen, "`(`")?;
        if self.at(TokenKind::RParen) {
            let meta = self.fresh(start);
            let close = self.bump().span;
            return Ok(Expr {
                meta: NodeMeta {
                    id: meta.id,
                    span: start.merge(close),
                },
                kind: ExprKind::Tuple(Vec::new()),
            });
        }
        let first = self.expression()?;
        if self.at(TokenKind::KwFor) {
            let comp = self.comprehension_tail(CompKind::Generator, first, None)?;
            self.expect(TokenKind::RParen, "`)` closing generator")?;
            return Ok(comp);
        }
        if self.at(TokenKind::Comma) {
            let meta = self.fresh(start);
            let mut items = vec![first];
            while self.eat(TokenKind::Comma) {
                if self.at(TokenKind::RParen) {
                    break;
                }
                items.push(self.expression()?);
            }
            let close = self.expect(TokenKind::RParen, "`)` closing tuple")?.span;
            return Ok(Expr {
                meta: NodeMeta {
                    id: meta.id,
                    span: start.merge(close),
                },
                kind: ExprKind::Tuple(items),
            });
        }
        self.expect(TokenKind::RParen, "`)` closing parenthesised expression")?;
        Ok(first)
    }

    fn list_atom(&mut self) -> Result<Expr, ParseError> {
        let start = self.span_here();
        let meta = self.fresh(start);
        self.expect(TokenKind::LBracket, "`[`")?;
        if self.at(TokenKind::RBracket) {
            let close = self.bump().span;
            return Ok(Expr {
                meta: NodeMeta {
                    id: meta.id,
                    span: start.merge(close),
                },
                kind: ExprKind::List(Vec::new()),
            });
        }
        let first = self.expression()?;
        if self.at(TokenKind::KwFor) {
            let mut comp = self.comprehension_tail(CompKind::List, first, None)?;
            let close = self
                .expect(TokenKind::RBracket, "`]` closing list comprehension")?
                .span;
            comp.meta.span = start.merge(close);
            return Ok(comp);
        }
        let mut items = vec![first];
        while self.eat(TokenKind::Comma) {
            if self.at(TokenKind::RBracket) {
                break;
            }
            items.push(self.expression()?);
        }
        let close = self.expect(TokenKind::RBracket, "`]` closing list")?.span;
        Ok(Expr {
            meta: NodeMeta {
                id: meta.id,
                span: start.merge(close),
            },
            kind: ExprKind::List(items),
        })
    }

    fn brace_atom(&mut self) -> Result<Expr, ParseError> {
        let start = self.span_here();
        let meta = self.fresh(start);
        self.expect(TokenKind::LBrace, "`{`")?;
        if self.at(TokenKind::RBrace) {
            let close = self.bump().span;
            return Ok(Expr {
                meta: NodeMeta {
                    id: meta.id,
                    span: start.merge(close),
                },
                kind: ExprKind::Dict {
                    keys: Vec::new(),
                    values: Vec::new(),
                },
            });
        }
        // `**splat` opens a dict.
        if self.at(TokenKind::DoubleStar) {
            self.bump();
            let v = self.expression()?;
            let mut keys: Vec<Option<Expr>> = vec![None];
            let mut values = vec![v];
            while self.eat(TokenKind::Comma) {
                if self.at(TokenKind::RBrace) {
                    break;
                }
                if self.eat(TokenKind::DoubleStar) {
                    keys.push(None);
                    values.push(self.expression()?);
                } else {
                    let k = self.expression()?;
                    self.expect(TokenKind::Colon, "`:` in dict entry")?;
                    keys.push(Some(k));
                    values.push(self.expression()?);
                }
            }
            let close = self.expect(TokenKind::RBrace, "`}` closing dict")?.span;
            return Ok(Expr {
                meta: NodeMeta {
                    id: meta.id,
                    span: start.merge(close),
                },
                kind: ExprKind::Dict { keys, values },
            });
        }
        let first = self.expression()?;
        if self.eat(TokenKind::Colon) {
            let first_value = self.expression()?;
            if self.at(TokenKind::KwFor) {
                let mut comp = self.comprehension_tail(CompKind::Dict, first, Some(first_value))?;
                let close = self
                    .expect(TokenKind::RBrace, "`}` closing dict comprehension")?
                    .span;
                comp.meta.span = start.merge(close);
                return Ok(comp);
            }
            let mut keys = vec![Some(first)];
            let mut values = vec![first_value];
            while self.eat(TokenKind::Comma) {
                if self.at(TokenKind::RBrace) {
                    break;
                }
                if self.eat(TokenKind::DoubleStar) {
                    keys.push(None);
                    values.push(self.expression()?);
                } else {
                    let k = self.expression()?;
                    self.expect(TokenKind::Colon, "`:` in dict entry")?;
                    keys.push(Some(k));
                    values.push(self.expression()?);
                }
            }
            let close = self.expect(TokenKind::RBrace, "`}` closing dict")?.span;
            return Ok(Expr {
                meta: NodeMeta {
                    id: meta.id,
                    span: start.merge(close),
                },
                kind: ExprKind::Dict { keys, values },
            });
        }
        if self.at(TokenKind::KwFor) {
            let mut comp = self.comprehension_tail(CompKind::Set, first, None)?;
            let close = self
                .expect(TokenKind::RBrace, "`}` closing set comprehension")?
                .span;
            comp.meta.span = start.merge(close);
            return Ok(comp);
        }
        let mut items = vec![first];
        while self.eat(TokenKind::Comma) {
            if self.at(TokenKind::RBrace) {
                break;
            }
            items.push(self.expression()?);
        }
        let close = self.expect(TokenKind::RBrace, "`}` closing set")?.span;
        Ok(Expr {
            meta: NodeMeta {
                id: meta.id,
                span: start.merge(close),
            },
            kind: ExprKind::Set(items),
        })
    }

    fn comprehension_tail(
        &mut self,
        kind: CompKind,
        element: Expr,
        value: Option<Expr>,
    ) -> Result<Expr, ParseError> {
        let start = element.meta.span;
        let meta = self.fresh(start);
        let mut clauses = Vec::new();
        while self.at(TokenKind::KwFor) || self.at(TokenKind::KwAsync) {
            if self.at(TokenKind::KwAsync) {
                self.bump();
            }
            self.expect(TokenKind::KwFor, "`for` in comprehension")?;
            let target = self.comp_target()?;
            self.expect(TokenKind::KwIn, "`in` in comprehension")?;
            let iter = self.or_expr()?;
            let mut ifs = Vec::new();
            while self.at(TokenKind::KwIf) {
                self.bump();
                ifs.push(self.or_expr()?);
            }
            clauses.push(CompClause { target, iter, ifs });
        }
        let end = clauses.last().map(|c| c.iter.meta.span).unwrap_or(start);
        Ok(Expr {
            meta: NodeMeta {
                id: meta.id,
                span: start.merge(end),
            },
            kind: ExprKind::Comprehension {
                kind,
                element: Box::new(element),
                value: value.map(Box::new),
                clauses,
            },
        })
    }

    fn comp_target(&mut self) -> Result<Expr, ParseError> {
        let start = self.span_here();
        let first = self.postfix_expr()?;
        if !self.at(TokenKind::Comma) {
            return Ok(first);
        }
        let meta = self.fresh(start);
        let mut items = vec![first];
        while self.eat(TokenKind::Comma) {
            if self.at(TokenKind::KwIn) {
                break;
            }
            items.push(self.postfix_expr()?);
        }
        let span = start.merge(items.last().expect("nonempty").meta.span);
        Ok(Expr {
            meta: NodeMeta { id: meta.id, span },
            kind: ExprKind::Tuple(items),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_ok(src: &str) -> Module {
        parse(src)
            .unwrap_or_else(|e| panic!("parse failed: {e}\nsource:\n{src}"))
            .module
    }

    fn first_stmt(src: &str) -> Stmt {
        parse_ok(src)
            .body
            .into_iter()
            .next()
            .expect("at least one statement")
    }

    #[test]
    fn parses_function_with_annotations() {
        let stmt = first_stmt("def add(a: int, b: int = 0) -> int:\n    return a + b\n");
        match stmt.kind {
            StmtKind::FunctionDef(f) => {
                assert_eq!(f.name, "add");
                assert_eq!(f.params.len(), 2);
                assert_eq!(
                    f.params[0].annotation.as_ref().unwrap().as_name(),
                    Some("int")
                );
                assert!(f.params[1].default.is_some());
                assert_eq!(f.returns.unwrap().as_name(), Some("int"));
                assert_eq!(f.body.len(), 1);
            }
            other => panic!("expected function, got {other:?}"),
        }
    }

    #[test]
    fn parses_class_with_bases_and_methods() {
        let src = "class Foo(Base, metaclass=Meta):\n    def m(self) -> None:\n        pass\n";
        match first_stmt(src).kind {
            StmtKind::ClassDef(c) => {
                assert_eq!(c.name, "Foo");
                assert_eq!(c.bases.len(), 1);
                assert_eq!(c.keywords.len(), 1);
                assert_eq!(c.body.len(), 1);
            }
            other => panic!("expected class, got {other:?}"),
        }
    }

    #[test]
    fn parses_ann_assign() {
        match first_stmt("items: List[int] = []\n").kind {
            StmtKind::AnnAssign {
                target,
                annotation,
                value,
            } => {
                assert_eq!(target.as_name(), Some("items"));
                assert_eq!(annotation.annotation_text().unwrap(), "List[int]");
                assert!(value.is_some());
            }
            other => panic!("expected ann-assign, got {other:?}"),
        }
    }

    #[test]
    fn parses_chained_assignment() {
        match first_stmt("a = b = 1\n").kind {
            StmtKind::Assign { targets, .. } => assert_eq!(targets.len(), 2),
            other => panic!("expected assign, got {other:?}"),
        }
    }

    #[test]
    fn parses_aug_assign() {
        match first_stmt("total //= 2\n").kind {
            StmtKind::AugAssign { op, .. } => assert_eq!(op, "//"),
            other => panic!("expected aug-assign, got {other:?}"),
        }
    }

    #[test]
    fn parses_control_flow() {
        let src = "\
if a:
    x = 1
elif b:
    x = 2
else:
    x = 3
while x < 10:
    x += 1
else:
    pass
for i in range(3):
    continue
";
        let m = parse_ok(src);
        assert_eq!(m.body.len(), 3);
        match &m.body[0].kind {
            StmtKind::If { orelse, .. } => {
                assert!(matches!(orelse[0].kind, StmtKind::If { .. }), "elif nests");
            }
            other => panic!("expected if, got {other:?}"),
        }
    }

    #[test]
    fn parses_try_except_finally() {
        let src = "\
try:
    risky()
except ValueError as e:
    handle(e)
except Exception:
    pass
else:
    ok()
finally:
    cleanup()
";
        match first_stmt(src).kind {
            StmtKind::Try {
                handlers,
                orelse,
                finalbody,
                ..
            } => {
                assert_eq!(handlers.len(), 2);
                assert_eq!(handlers[0].name.as_deref(), Some("e"));
                assert_eq!(orelse.len(), 1);
                assert_eq!(finalbody.len(), 1);
            }
            other => panic!("expected try, got {other:?}"),
        }
    }

    #[test]
    fn parses_with_as() {
        match first_stmt("with open(p) as f, lock:\n    pass\n").kind {
            StmtKind::With { items, .. } => {
                assert_eq!(items.len(), 2);
                assert!(items[0].target.is_some());
                assert!(items[1].target.is_none());
            }
            other => panic!("expected with, got {other:?}"),
        }
    }

    #[test]
    fn parses_imports() {
        let m = parse_ok("import os.path as osp, sys\nfrom typing import List, Dict as D\nfrom . import sibling\n");
        assert_eq!(m.body.len(), 3);
        match &m.body[1].kind {
            StmtKind::ImportFrom {
                module,
                names,
                level,
            } => {
                assert_eq!(module, "typing");
                assert_eq!(names.len(), 2);
                assert_eq!(names[1].asname.as_deref(), Some("D"));
                assert_eq!(*level, 0);
            }
            other => panic!("expected from-import, got {other:?}"),
        }
        match &m.body[2].kind {
            StmtKind::ImportFrom { level, .. } => assert_eq!(*level, 1),
            other => panic!("expected relative import, got {other:?}"),
        }
    }

    #[test]
    fn parses_call_with_keywords_and_splats() {
        match first_stmt("f(1, x, *rest, key=2, **opts)\n").kind {
            StmtKind::Expr(e) => match e.kind {
                ExprKind::Call { args, keywords, .. } => {
                    assert_eq!(args.len(), 3);
                    assert!(matches!(args[2].kind, ExprKind::Starred(_)));
                    assert_eq!(keywords.len(), 2);
                    assert_eq!(keywords[0].arg.as_deref(), Some("key"));
                    assert_eq!(keywords[1].arg, None);
                }
                other => panic!("expected call, got {other:?}"),
            },
            other => panic!("expected expr stmt, got {other:?}"),
        }
    }

    #[test]
    fn parses_chained_comparison() {
        match first_stmt("ok = 0 <= x < n\n").kind {
            StmtKind::Assign { value, .. } => match value.kind {
                ExprKind::Compare {
                    ops, comparators, ..
                } => {
                    assert_eq!(ops, vec![CmpOp::Le, CmpOp::Lt]);
                    assert_eq!(comparators.len(), 2);
                }
                other => panic!("expected comparison, got {other:?}"),
            },
            other => panic!("expected assign, got {other:?}"),
        }
    }

    #[test]
    fn parses_is_not_and_not_in() {
        match first_stmt("ok = a is not None and b not in xs\n").kind {
            StmtKind::Assign { value, .. } => match value.kind {
                ExprKind::BoolOp { values, .. } => {
                    match &values[0].kind {
                        ExprKind::Compare { ops, .. } => assert_eq!(ops[0], CmpOp::IsNot),
                        other => panic!("expected compare, got {other:?}"),
                    }
                    match &values[1].kind {
                        ExprKind::Compare { ops, .. } => assert_eq!(ops[0], CmpOp::NotIn),
                        other => panic!("expected compare, got {other:?}"),
                    }
                }
                other => panic!("expected boolop, got {other:?}"),
            },
            other => panic!("expected assign, got {other:?}"),
        }
    }

    #[test]
    fn parses_comprehensions() {
        let m = parse_ok(
            "a = [x * 2 for x in xs if x > 0]\nb = {k: v for k, v in items}\nc = {s for s in ss}\nd = (y for y in ys)\n",
        );
        let kinds: Vec<CompKind> = m
            .body
            .iter()
            .map(|s| match &s.kind {
                StmtKind::Assign { value, .. } => match &value.kind {
                    ExprKind::Comprehension { kind, .. } => *kind,
                    other => panic!("expected comprehension, got {other:?}"),
                },
                other => panic!("expected assign, got {other:?}"),
            })
            .collect();
        assert_eq!(
            kinds,
            vec![
                CompKind::List,
                CompKind::Dict,
                CompKind::Set,
                CompKind::Generator
            ]
        );
    }

    #[test]
    fn dict_comprehension_kind_is_dict() {
        match first_stmt("b = {k: v for k, v in items}\n").kind {
            StmtKind::Assign { value, .. } => match value.kind {
                ExprKind::Comprehension {
                    kind,
                    value: Some(_),
                    ..
                } => {
                    assert_eq!(kind, CompKind::Dict)
                }
                other => panic!("expected dict comprehension, got {other:?}"),
            },
            other => panic!("expected assign, got {other:?}"),
        }
    }

    #[test]
    fn parses_lambda_and_ifexp() {
        match first_stmt("f = lambda x, y=1: x if x > y else y\n").kind {
            StmtKind::Assign { value, .. } => match value.kind {
                ExprKind::Lambda { params, body } => {
                    assert_eq!(params.len(), 2);
                    assert!(matches!(body.kind, ExprKind::IfExp { .. }));
                }
                other => panic!("expected lambda, got {other:?}"),
            },
            other => panic!("expected assign, got {other:?}"),
        }
    }

    #[test]
    fn parses_slices() {
        match first_stmt("y = xs[1:n:2]\n").kind {
            StmtKind::Assign { value, .. } => match value.kind {
                ExprKind::Subscript { index, .. } => {
                    assert!(matches!(index.kind, ExprKind::Slice { .. }));
                }
                other => panic!("expected subscript, got {other:?}"),
            },
            other => panic!("expected assign, got {other:?}"),
        }
    }

    #[test]
    fn parses_tuple_unpacking_for() {
        match first_stmt("for k, v in pairs:\n    pass\n").kind {
            StmtKind::For { target, .. } => {
                assert!(matches!(target.kind, ExprKind::Tuple(ref t) if t.len() == 2));
            }
            other => panic!("expected for, got {other:?}"),
        }
    }

    #[test]
    fn parses_decorators() {
        let src = "@staticmethod\n@app.route('/x')\ndef h():\n    pass\n";
        match first_stmt(src).kind {
            StmtKind::FunctionDef(f) => assert_eq!(f.decorators.len(), 2),
            other => panic!("expected function, got {other:?}"),
        }
    }

    #[test]
    fn parses_star_args_kwargs_and_kwonly() {
        let src = "def f(a, *args, b: int = 1, **kwargs):\n    pass\n";
        match first_stmt(src).kind {
            StmtKind::FunctionDef(f) => {
                let kinds: Vec<ParamKind> = f.params.iter().map(|p| p.kind).collect();
                assert_eq!(
                    kinds,
                    vec![
                        ParamKind::Plain,
                        ParamKind::VarArgs,
                        ParamKind::KwOnly,
                        ParamKind::KwArgs
                    ]
                );
            }
            other => panic!("expected function, got {other:?}"),
        }
    }

    #[test]
    fn parses_yield_forms() {
        let src = "def g():\n    yield\n    yield 1\n    yield from other()\n";
        match first_stmt(src).kind {
            StmtKind::FunctionDef(f) => {
                let kinds: Vec<&ExprKind> = f
                    .body
                    .iter()
                    .map(|s| match &s.kind {
                        StmtKind::Expr(e) => &e.kind,
                        other => panic!("expected expr stmt, got {other:?}"),
                    })
                    .collect();
                assert!(matches!(kinds[0], ExprKind::Yield(None)));
                assert!(matches!(kinds[1], ExprKind::Yield(Some(_))));
                assert!(matches!(kinds[2], ExprKind::YieldFrom(_)));
            }
            other => panic!("expected function, got {other:?}"),
        }
    }

    #[test]
    fn parses_async_function_and_await() {
        let src = "async def f(x):\n    return await g(x)\n";
        match first_stmt(src).kind {
            StmtKind::FunctionDef(f) => {
                assert!(f.is_async);
                match &f.body[0].kind {
                    StmtKind::Return(Some(e)) => assert!(matches!(e.kind, ExprKind::Await(_))),
                    other => panic!("expected return await, got {other:?}"),
                }
            }
            other => panic!("expected function, got {other:?}"),
        }
    }

    #[test]
    fn parses_walrus() {
        match first_stmt("if (n := read()) > 0:\n    pass\n").kind {
            StmtKind::If { test, .. } => match test.kind {
                ExprKind::Compare { left, .. } => {
                    assert!(matches!(left.kind, ExprKind::Walrus { .. }));
                }
                other => panic!("expected compare, got {other:?}"),
            },
            other => panic!("expected if, got {other:?}"),
        }
    }

    #[test]
    fn parses_fstring_as_fstring() {
        match first_stmt("s = f'{x}!'\n").kind {
            StmtKind::Assign { value, .. } => {
                assert!(matches!(value.kind, ExprKind::FString(_)));
            }
            other => panic!("expected assign, got {other:?}"),
        }
    }

    #[test]
    fn adjacent_strings_concatenate() {
        match first_stmt("s = 'a' 'b'\n").kind {
            StmtKind::Assign { value, .. } => match value.kind {
                ExprKind::Str(s) => assert_eq!(s, "'a''b'"),
                other => panic!("expected str, got {other:?}"),
            },
            other => panic!("expected assign, got {other:?}"),
        }
    }

    #[test]
    fn node_ids_are_unique() {
        struct Ids(std::collections::HashSet<u32>);
        impl crate::visit::Visitor for Ids {
            fn visit_stmt(&mut self, s: &Stmt) {
                assert!(self.0.insert(s.meta.id.0), "duplicate id {:?}", s.meta.id);
            }
            fn visit_expr(&mut self, e: &Expr) {
                assert!(self.0.insert(e.meta.id.0), "duplicate id {:?}", e.meta.id);
            }
        }
        let m = parse_ok(
            "@d\ndef f(a: int = 1) -> str:\n    b = {a: [x for x in a if x]}\n    return b * 2 if a else -b\n",
        );
        let mut ids = Ids(std::collections::HashSet::new());
        crate::visit::walk_module(&mut ids, &m);
        assert_eq!(ids.0.len(), 22, "every statement and expression is visited");
        assert!(ids.0.iter().all(|&id| id < m.node_count));
    }

    #[test]
    fn errors_on_garbage() {
        assert!(parse("def f(:\n    pass\n").is_err());
        assert!(parse("x = = 1\n").is_err());
        assert!(parse("class :\n    pass\n").is_err());
    }

    #[test]
    fn parses_inline_suite() {
        match first_stmt("if x: y = 1\n").kind {
            StmtKind::If { body, .. } => assert_eq!(body.len(), 1),
            other => panic!("expected if, got {other:?}"),
        }
    }

    #[test]
    fn parses_global_and_del() {
        let m = parse_ok("def f():\n    global counter\n    del cache[k]\n");
        match &m.body[0].kind {
            StmtKind::FunctionDef(f) => {
                assert!(matches!(f.body[0].kind, StmtKind::Global(_)));
                assert!(matches!(f.body[1].kind, StmtKind::Delete(_)));
            }
            other => panic!("expected function, got {other:?}"),
        }
    }

    #[test]
    fn parses_realistic_file() {
        let src = r#"
import os
from typing import Dict, List, Optional


class Config:
    """Configuration holder."""

    def __init__(self, path: str, defaults: Optional[Dict[str, str]] = None) -> None:
        self.path = path
        self.values: Dict[str, str] = dict(defaults or {})

    def load(self) -> int:
        count = 0
        with open(self.path) as fh:
            for line in fh:
                line = line.strip()
                if not line or line.startswith('#'):
                    continue
                key, _, value = line.partition('=')
                self.values[key.strip()] = value.strip()
                count += 1
        return count


def merge(configs: List[Config]) -> Dict[str, str]:
    merged: Dict[str, str] = {}
    for cfg in configs:
        merged.update(cfg.values)
    return merged
"#;
        let m = parse_ok(src);
        assert_eq!(m.body.len(), 4);
    }
}
