//! Recursive-descent SQL parser.

use super::ast::*;
use super::lexer::{tokenize, Token, TokenKind};
use crate::error::{DbError, Result};
use crate::schema::ColumnDef;
use crate::value::{DataType, Value};

/// Parse a single SQL statement (an optional trailing `;` is allowed).
#[cfg(test)]
pub(crate) fn parse_statement(sql: &str) -> Result<Statement> {
    parse_statement_with_params(sql).map(|(stmt, _)| stmt)
}

/// Parse a statement and report how many `?` parameters it uses.
pub(crate) fn parse_statement_with_params(sql: &str) -> Result<(Statement, usize)> {
    let tokens = tokenize(sql)?;
    let mut p = Parser {
        tokens,
        pos: 0,
        params: 0,
    };
    let stmt = p.statement()?;
    p.eat_kind(&TokenKind::Semicolon);
    p.expect_eof()?;
    Ok((stmt, p.params))
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    params: usize,
}

impl Parser {
    fn peek(&self) -> &TokenKind {
        &self.tokens[self.pos].kind
    }

    fn peek_pos(&self) -> usize {
        self.tokens[self.pos].pos
    }

    fn advance(&mut self) -> TokenKind {
        let t = self.tokens[self.pos].kind.clone();
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
        t
    }

    fn err(&self, message: impl Into<String>) -> DbError {
        DbError::Parse {
            message: message.into(),
            position: self.peek_pos(),
        }
    }

    fn eat_kind(&mut self, kind: &TokenKind) -> bool {
        if self.peek() == kind {
            self.advance();
            true
        } else {
            false
        }
    }

    fn eat_keyword(&mut self, kw: &str) -> bool {
        if matches!(self.peek(), TokenKind::Keyword(k) if k == kw) {
            self.advance();
            true
        } else {
            false
        }
    }

    fn expect_keyword(&mut self, kw: &str) -> Result<()> {
        if self.eat_keyword(kw) {
            Ok(())
        } else {
            Err(self.err(format!("expected {kw}, found {:?}", self.peek())))
        }
    }

    fn expect_kind(&mut self, kind: TokenKind, what: &str) -> Result<()> {
        if self.eat_kind(&kind) {
            Ok(())
        } else {
            Err(self.err(format!("expected {what}, found {:?}", self.peek())))
        }
    }

    fn expect_eof(&self) -> Result<()> {
        if matches!(self.peek(), TokenKind::Eof) {
            Ok(())
        } else {
            Err(self.err(format!("unexpected trailing input: {:?}", self.peek())))
        }
    }

    /// Identifier (plain or quoted). Lowercased unless quoted.
    fn identifier(&mut self, what: &str) -> Result<String> {
        match self.advance() {
            TokenKind::Ident(s) => Ok(s.to_ascii_lowercase()),
            TokenKind::QuotedIdent(s) => Ok(s),
            // Non-reserved usage of keywords as identifiers is common for
            // column names like "key"; allow a few safe ones.
            TokenKind::Keyword(k) if matches!(k.as_str(), "KEY" | "INDEX" | "COLUMN" | "ALL") => {
                Ok(k.to_ascii_lowercase())
            }
            other => {
                self.pos -= 1;
                Err(self.err(format!("expected {what}, found {other:?}")))
            }
        }
    }

    fn statement(&mut self) -> Result<Statement> {
        match self.peek() {
            TokenKind::Keyword(k) => match k.as_str() {
                "EXPLAIN" => {
                    self.advance();
                    let analyze = self.eat_keyword("ANALYZE");
                    Ok(Statement::Explain {
                        statement: Box::new(self.statement()?),
                        analyze,
                    })
                }
                "SELECT" => Ok(Statement::Select(self.select()?)),
                "INSERT" => self.insert(),
                "UPDATE" => self.update(),
                "DELETE" => self.delete(),
                "CREATE" => self.create(),
                "DROP" => self.drop(),
                "ALTER" => self.alter(),
                "BEGIN" => {
                    self.advance();
                    self.eat_keyword("TRANSACTION");
                    Ok(Statement::Begin)
                }
                "COMMIT" => {
                    self.advance();
                    self.eat_keyword("TRANSACTION");
                    Ok(Statement::Commit)
                }
                "ROLLBACK" => {
                    self.advance();
                    self.eat_keyword("TRANSACTION");
                    Ok(Statement::Rollback)
                }
                other => Err(self.err(format!("unexpected keyword {other}"))),
            },
            other => Err(self.err(format!("expected a statement, found {other:?}"))),
        }
    }

    // ---------------- SELECT ----------------

    fn select(&mut self) -> Result<Select> {
        self.expect_keyword("SELECT")?;
        let distinct = self.eat_keyword("DISTINCT");
        if distinct {
            // allow SELECT DISTINCT ALL? no — but SELECT ALL is a no-op
        } else {
            self.eat_keyword("ALL");
        }
        let mut projections = vec![self.projection()?];
        while self.eat_kind(&TokenKind::Comma) {
            projections.push(self.projection()?);
        }
        let mut from = None;
        let mut joins = Vec::new();
        if self.eat_keyword("FROM") {
            from = Some(self.table_ref()?);
            loop {
                let kind = if self.eat_keyword("JOIN") {
                    JoinKind::Inner
                } else if self.eat_keyword("INNER") {
                    self.expect_keyword("JOIN")?;
                    JoinKind::Inner
                } else if self.eat_keyword("LEFT") {
                    self.eat_keyword("OUTER");
                    self.expect_keyword("JOIN")?;
                    JoinKind::Left
                } else if self.eat_keyword("CROSS") {
                    self.expect_keyword("JOIN")?;
                    JoinKind::Cross
                } else if self.eat_kind(&TokenKind::Comma) {
                    JoinKind::Cross
                } else {
                    break;
                };
                let table = self.table_ref()?;
                let on = if kind != JoinKind::Cross {
                    self.expect_keyword("ON")?;
                    Some(self.expr()?)
                } else {
                    None
                };
                joins.push(Join { kind, table, on });
            }
        }
        let where_clause = if self.eat_keyword("WHERE") {
            Some(self.expr()?)
        } else {
            None
        };
        let mut group_by = Vec::new();
        if self.eat_keyword("GROUP") {
            self.expect_keyword("BY")?;
            group_by.push(self.expr()?);
            while self.eat_kind(&TokenKind::Comma) {
                group_by.push(self.expr()?);
            }
        }
        let having = if self.eat_keyword("HAVING") {
            Some(self.expr()?)
        } else {
            None
        };
        let mut order_by = Vec::new();
        if self.eat_keyword("ORDER") {
            self.expect_keyword("BY")?;
            loop {
                let expr = self.expr()?;
                let descending = if self.eat_keyword("DESC") {
                    true
                } else {
                    self.eat_keyword("ASC");
                    false
                };
                order_by.push(OrderItem { expr, descending });
                if !self.eat_kind(&TokenKind::Comma) {
                    break;
                }
            }
        }
        let mut limit = None;
        let mut offset = None;
        if self.eat_keyword("LIMIT") {
            limit = Some(self.unsigned_int("LIMIT count")?);
            if self.eat_keyword("OFFSET") {
                offset = Some(self.unsigned_int("OFFSET count")?);
            }
        } else if self.eat_keyword("OFFSET") {
            offset = Some(self.unsigned_int("OFFSET count")?);
        }
        Ok(Select {
            distinct,
            projections,
            from,
            joins,
            where_clause,
            group_by,
            having,
            order_by,
            limit,
            offset,
        })
    }

    fn unsigned_int(&mut self, what: &str) -> Result<u64> {
        match self.advance() {
            TokenKind::Int(v) if v >= 0 => Ok(v as u64),
            other => {
                self.pos -= 1;
                Err(self.err(format!("expected {what}, found {other:?}")))
            }
        }
    }

    fn projection(&mut self) -> Result<Projection> {
        if self.eat_kind(&TokenKind::Star) {
            return Ok(Projection::Wildcard);
        }
        // `t.*`
        if let TokenKind::Ident(name) = self.peek().clone() {
            if self.tokens.get(self.pos + 1).map(|t| &t.kind) == Some(&TokenKind::Dot)
                && self.tokens.get(self.pos + 2).map(|t| &t.kind) == Some(&TokenKind::Star)
            {
                self.advance();
                self.advance();
                self.advance();
                return Ok(Projection::TableWildcard(name.to_ascii_lowercase()));
            }
        }
        let expr = self.expr()?;
        let alias = if self.eat_keyword("AS") || matches!(self.peek(), TokenKind::Ident(_)) {
            Some(self.identifier("alias")?)
        } else {
            None
        };
        Ok(Projection::Expr { expr, alias })
    }

    fn table_ref(&mut self) -> Result<TableRef> {
        let table = self.identifier("table name")?;
        let alias = if self.eat_keyword("AS") || matches!(self.peek(), TokenKind::Ident(_)) {
            Some(self.identifier("table alias")?)
        } else {
            None
        };
        Ok(TableRef { table, alias })
    }

    // ---------------- DML ----------------

    fn insert(&mut self) -> Result<Statement> {
        self.expect_keyword("INSERT")?;
        self.expect_keyword("INTO")?;
        let table = self.identifier("table name")?;
        let mut columns = Vec::new();
        if self.eat_kind(&TokenKind::LParen) {
            loop {
                columns.push(self.identifier("column name")?);
                if !self.eat_kind(&TokenKind::Comma) {
                    break;
                }
            }
            self.expect_kind(TokenKind::RParen, ")")?;
        }
        self.expect_keyword("VALUES")?;
        let mut rows = Vec::new();
        loop {
            self.expect_kind(TokenKind::LParen, "(")?;
            let mut vals = Vec::new();
            if !self.eat_kind(&TokenKind::RParen) {
                loop {
                    vals.push(self.expr()?);
                    if !self.eat_kind(&TokenKind::Comma) {
                        break;
                    }
                }
                self.expect_kind(TokenKind::RParen, ")")?;
            }
            rows.push(vals);
            if !self.eat_kind(&TokenKind::Comma) {
                break;
            }
        }
        Ok(Statement::Insert(Insert {
            table,
            columns,
            rows,
        }))
    }

    fn update(&mut self) -> Result<Statement> {
        self.expect_keyword("UPDATE")?;
        let table = self.identifier("table name")?;
        self.expect_keyword("SET")?;
        let mut assignments = Vec::new();
        loop {
            let col = self.identifier("column name")?;
            self.expect_kind(TokenKind::Eq, "=")?;
            let value = self.expr()?;
            assignments.push((col, value));
            if !self.eat_kind(&TokenKind::Comma) {
                break;
            }
        }
        let where_clause = if self.eat_keyword("WHERE") {
            Some(self.expr()?)
        } else {
            None
        };
        Ok(Statement::Update(Update {
            table,
            assignments,
            where_clause,
        }))
    }

    fn delete(&mut self) -> Result<Statement> {
        self.expect_keyword("DELETE")?;
        self.expect_keyword("FROM")?;
        let table = self.identifier("table name")?;
        let where_clause = if self.eat_keyword("WHERE") {
            Some(self.expr()?)
        } else {
            None
        };
        Ok(Statement::Delete(Delete {
            table,
            where_clause,
        }))
    }

    // ---------------- DDL ----------------

    fn create(&mut self) -> Result<Statement> {
        self.expect_keyword("CREATE")?;
        let unique = self.eat_keyword("UNIQUE");
        if self.eat_keyword("INDEX") {
            let name = self.identifier("index name")?;
            self.expect_keyword("ON")?;
            let table = self.identifier("table name")?;
            self.expect_kind(TokenKind::LParen, "(")?;
            let column = self.identifier("column name")?;
            self.expect_kind(TokenKind::RParen, ")")?;
            return Ok(Statement::CreateIndex {
                name,
                table,
                column,
                unique,
            });
        }
        if unique {
            return Err(self.err("expected INDEX after CREATE UNIQUE"));
        }
        self.expect_keyword("TABLE")?;
        let if_not_exists = if self.eat_keyword("IF") {
            self.expect_keyword("NOT")?;
            self.expect_keyword("EXISTS")?;
            true
        } else {
            false
        };
        let name = self.identifier("table name")?;
        self.expect_kind(TokenKind::LParen, "(")?;
        let mut columns = Vec::new();
        loop {
            // table-level FOREIGN KEY clause
            if self.eat_keyword("FOREIGN") {
                self.expect_keyword("KEY")?;
                self.expect_kind(TokenKind::LParen, "(")?;
                let col = self.identifier("column name")?;
                self.expect_kind(TokenKind::RParen, ")")?;
                self.expect_keyword("REFERENCES")?;
                let ftable = self.identifier("referenced table")?;
                self.expect_kind(TokenKind::LParen, "(")?;
                let fcol = self.identifier("referenced column")?;
                self.expect_kind(TokenKind::RParen, ")")?;
                if let Some(c) = columns.iter_mut().find(|c: &&mut ColumnDef| c.name == col) {
                    c.references = Some((ftable, fcol));
                } else {
                    return Err(self.err(format!("FOREIGN KEY names unknown column {col}")));
                }
            } else if self.eat_keyword("PRIMARY") {
                // table-level PRIMARY KEY (col)
                self.expect_keyword("KEY")?;
                self.expect_kind(TokenKind::LParen, "(")?;
                let col = self.identifier("column name")?;
                self.expect_kind(TokenKind::RParen, ")")?;
                if let Some(c) = columns.iter_mut().find(|c: &&mut ColumnDef| c.name == col) {
                    c.primary_key = true;
                    c.not_null = true;
                    c.unique = true;
                } else {
                    return Err(self.err(format!("PRIMARY KEY names unknown column {col}")));
                }
            } else {
                columns.push(self.column_def()?);
            }
            if !self.eat_kind(&TokenKind::Comma) {
                break;
            }
        }
        self.expect_kind(TokenKind::RParen, ")")?;
        Ok(Statement::CreateTable {
            name,
            columns,
            if_not_exists,
        })
    }

    fn column_def(&mut self) -> Result<ColumnDef> {
        let name = self.identifier("column name")?;
        let ty_name = self.identifier("column type")?;
        let ty = DataType::parse(&ty_name)
            .ok_or_else(|| self.err(format!("unknown column type {ty_name:?}")))?;
        // size suffix like VARCHAR(255)
        if self.eat_kind(&TokenKind::LParen) {
            self.unsigned_int("type size")?;
            if self.eat_kind(&TokenKind::Comma) {
                self.unsigned_int("type scale")?;
            }
            self.expect_kind(TokenKind::RParen, ")")?;
        }
        let mut col = ColumnDef::new(name, ty);
        loop {
            if self.eat_keyword("PRIMARY") {
                self.expect_keyword("KEY")?;
                col = col.primary_key();
            } else if self.eat_keyword("NOT") {
                self.expect_keyword("NULL")?;
                col = col.not_null();
            } else if self.eat_keyword("NULL") {
                // explicit nullable; nothing to do
            } else if self.eat_keyword("UNIQUE") {
                col = col.unique();
            } else if self.eat_keyword("AUTO_INCREMENT") {
                col = col.auto_increment();
            } else if self.eat_keyword("DEFAULT") {
                let v = self.literal_value()?;
                col = col.default_value(v);
            } else if self.eat_keyword("REFERENCES") {
                let table = self.identifier("referenced table")?;
                self.expect_kind(TokenKind::LParen, "(")?;
                let column = self.identifier("referenced column")?;
                self.expect_kind(TokenKind::RParen, ")")?;
                col = col.references(table, column);
            } else {
                break;
            }
        }
        Ok(col)
    }

    fn literal_value(&mut self) -> Result<Value> {
        let negative = self.eat_kind(&TokenKind::Minus);
        match self.advance() {
            TokenKind::Int(v) => Ok(Value::Int(if negative { -v } else { v })),
            TokenKind::Float(v) => Ok(Value::Float(if negative { -v } else { v })),
            TokenKind::Str(s) if !negative => Ok(Value::Text(s.into())),
            TokenKind::Keyword(k) if k == "NULL" && !negative => Ok(Value::Null),
            TokenKind::Keyword(k) if k == "TRUE" && !negative => Ok(Value::Bool(true)),
            TokenKind::Keyword(k) if k == "FALSE" && !negative => Ok(Value::Bool(false)),
            other => {
                self.pos -= 1;
                Err(self.err(format!("expected a literal, found {other:?}")))
            }
        }
    }

    fn drop(&mut self) -> Result<Statement> {
        self.expect_keyword("DROP")?;
        if self.eat_keyword("INDEX") {
            let name = self.identifier("index name")?;
            return Ok(Statement::DropIndex { name });
        }
        self.expect_keyword("TABLE")?;
        let if_exists = if self.eat_keyword("IF") {
            self.expect_keyword("EXISTS")?;
            true
        } else {
            false
        };
        let name = self.identifier("table name")?;
        Ok(Statement::DropTable { name, if_exists })
    }

    fn alter(&mut self) -> Result<Statement> {
        self.expect_keyword("ALTER")?;
        self.expect_keyword("TABLE")?;
        let table = self.identifier("table name")?;
        if self.eat_keyword("ADD") {
            self.eat_keyword("COLUMN");
            let column = self.column_def()?;
            Ok(Statement::AlterTableAddColumn { table, column })
        } else if self.eat_keyword("DROP") {
            self.eat_keyword("COLUMN");
            let column = self.identifier("column name")?;
            Ok(Statement::AlterTableDropColumn { table, column })
        } else {
            Err(self.err("expected ADD or DROP after ALTER TABLE"))
        }
    }

    // ---------------- expressions (precedence climbing) ----------------

    fn expr(&mut self) -> Result<Expr> {
        self.or_expr()
    }

    fn or_expr(&mut self) -> Result<Expr> {
        let mut left = self.and_expr()?;
        while self.eat_keyword("OR") {
            let right = self.and_expr()?;
            left = Expr::Binary {
                op: BinaryOp::Or,
                left: Box::new(left),
                right: Box::new(right),
            };
        }
        Ok(left)
    }

    fn and_expr(&mut self) -> Result<Expr> {
        let mut left = self.not_expr()?;
        while self.eat_keyword("AND") {
            let right = self.not_expr()?;
            left = Expr::Binary {
                op: BinaryOp::And,
                left: Box::new(left),
                right: Box::new(right),
            };
        }
        Ok(left)
    }

    fn not_expr(&mut self) -> Result<Expr> {
        if self.eat_keyword("NOT") {
            let operand = self.not_expr()?;
            Ok(Expr::Unary {
                op: UnaryOp::Not,
                operand: Box::new(operand),
            })
        } else {
            self.comparison()
        }
    }

    fn comparison(&mut self) -> Result<Expr> {
        let left = self.additive()?;
        // IS [NOT] NULL
        if self.eat_keyword("IS") {
            let negated = self.eat_keyword("NOT");
            self.expect_keyword("NULL")?;
            return Ok(Expr::IsNull {
                operand: Box::new(left),
                negated,
            });
        }
        let negated = self.eat_keyword("NOT");
        if self.eat_keyword("IN") {
            self.expect_kind(TokenKind::LParen, "(")?;
            if matches!(self.peek(), TokenKind::Keyword(k) if k == "SELECT") {
                let select = self.select()?;
                self.expect_kind(TokenKind::RParen, ")")?;
                return Ok(Expr::InSubquery {
                    operand: Box::new(left),
                    select: Box::new(select),
                    negated,
                });
            }
            let mut list = Vec::new();
            loop {
                list.push(self.expr()?);
                if !self.eat_kind(&TokenKind::Comma) {
                    break;
                }
            }
            self.expect_kind(TokenKind::RParen, ")")?;
            return Ok(Expr::InList {
                operand: Box::new(left),
                list,
                negated,
            });
        }
        if self.eat_keyword("BETWEEN") {
            let low = self.additive()?;
            self.expect_keyword("AND")?;
            let high = self.additive()?;
            return Ok(Expr::Between {
                operand: Box::new(left),
                low: Box::new(low),
                high: Box::new(high),
                negated,
            });
        }
        if self.eat_keyword("LIKE") {
            let right = self.additive()?;
            let like = Expr::Binary {
                op: BinaryOp::Like,
                left: Box::new(left),
                right: Box::new(right),
            };
            return Ok(if negated {
                Expr::Unary {
                    op: UnaryOp::Not,
                    operand: Box::new(like),
                }
            } else {
                like
            });
        }
        if negated {
            return Err(self.err("expected IN, BETWEEN, or LIKE after NOT"));
        }
        let op = match self.peek() {
            TokenKind::Eq => BinaryOp::Eq,
            TokenKind::NotEq => BinaryOp::NotEq,
            TokenKind::Lt => BinaryOp::Lt,
            TokenKind::LtEq => BinaryOp::LtEq,
            TokenKind::Gt => BinaryOp::Gt,
            TokenKind::GtEq => BinaryOp::GtEq,
            _ => return Ok(left),
        };
        self.advance();
        let right = self.additive()?;
        Ok(Expr::Binary {
            op,
            left: Box::new(left),
            right: Box::new(right),
        })
    }

    fn additive(&mut self) -> Result<Expr> {
        let mut left = self.multiplicative()?;
        loop {
            let op = match self.peek() {
                TokenKind::Plus => BinaryOp::Add,
                TokenKind::Minus => BinaryOp::Sub,
                TokenKind::Concat => BinaryOp::Concat,
                _ => break,
            };
            self.advance();
            let right = self.multiplicative()?;
            left = Expr::Binary {
                op,
                left: Box::new(left),
                right: Box::new(right),
            };
        }
        Ok(left)
    }

    fn multiplicative(&mut self) -> Result<Expr> {
        let mut left = self.unary()?;
        loop {
            let op = match self.peek() {
                TokenKind::Star => BinaryOp::Mul,
                TokenKind::Slash => BinaryOp::Div,
                TokenKind::Percent => BinaryOp::Mod,
                _ => break,
            };
            self.advance();
            let right = self.unary()?;
            left = Expr::Binary {
                op,
                left: Box::new(left),
                right: Box::new(right),
            };
        }
        Ok(left)
    }

    fn unary(&mut self) -> Result<Expr> {
        if self.eat_kind(&TokenKind::Minus) {
            let operand = self.unary()?;
            return Ok(Expr::Unary {
                op: UnaryOp::Neg,
                operand: Box::new(operand),
            });
        }
        if self.eat_kind(&TokenKind::Plus) {
            return self.unary();
        }
        self.primary()
    }

    fn primary(&mut self) -> Result<Expr> {
        match self.advance() {
            TokenKind::Int(v) => Ok(Expr::Literal(Value::Int(v))),
            TokenKind::Float(v) => Ok(Expr::Literal(Value::Float(v))),
            TokenKind::Str(s) => Ok(Expr::Literal(Value::Text(s.into()))),
            TokenKind::Param => {
                let ordinal = self.params;
                self.params += 1;
                Ok(Expr::Param(ordinal))
            }
            TokenKind::Keyword(k) if k == "NULL" => Ok(Expr::Literal(Value::Null)),
            TokenKind::Keyword(k) if k == "TRUE" => Ok(Expr::Literal(Value::Bool(true))),
            TokenKind::Keyword(k) if k == "FALSE" => Ok(Expr::Literal(Value::Bool(false))),
            TokenKind::Keyword(k) if k == "CASE" => self.case_expr(),
            TokenKind::Keyword(k) if k == "EXISTS" => {
                self.expect_kind(TokenKind::LParen, "(")?;
                let select = self.select()?;
                self.expect_kind(TokenKind::RParen, ")")?;
                Ok(Expr::Exists {
                    select: Box::new(select),
                    negated: false,
                })
            }
            TokenKind::Keyword(k) if k == "CAST" => {
                self.expect_kind(TokenKind::LParen, "(")?;
                let inner = self.expr()?;
                self.expect_keyword("AS")?;
                let ty_name = self.identifier("type name")?;
                self.expect_kind(TokenKind::RParen, ")")?;
                Ok(Expr::Function {
                    name: format!("cast_{}", ty_name.to_ascii_lowercase()),
                    args: vec![inner],
                })
            }
            TokenKind::LParen => {
                if matches!(self.peek(), TokenKind::Keyword(k) if k == "SELECT") {
                    let select = self.select()?;
                    self.expect_kind(TokenKind::RParen, ")")?;
                    return Ok(Expr::ScalarSubquery(Box::new(select)));
                }
                let inner = self.expr()?;
                self.expect_kind(TokenKind::RParen, ")")?;
                Ok(inner)
            }
            TokenKind::Ident(name) | TokenKind::QuotedIdent(name) => {
                // function call?
                if self.eat_kind(&TokenKind::LParen) {
                    return self.finish_call(&name);
                }
                // qualified column?
                if self.eat_kind(&TokenKind::Dot) {
                    let column = self.identifier("column name")?;
                    return Ok(Expr::Column {
                        table: Some(name.to_ascii_lowercase()),
                        column,
                    });
                }
                Ok(Expr::Column {
                    table: None,
                    column: name.to_ascii_lowercase(),
                })
            }
            other => {
                self.pos -= 1;
                Err(self.err(format!("expected an expression, found {other:?}")))
            }
        }
    }

    fn finish_call(&mut self, name: &str) -> Result<Expr> {
        if let Some(func) = AggregateFn::parse(name) {
            if func == AggregateFn::Count && self.eat_kind(&TokenKind::Star) {
                self.expect_kind(TokenKind::RParen, ")")?;
                return Ok(Expr::Aggregate {
                    func,
                    arg: None,
                    distinct: false,
                });
            }
            let distinct = self.eat_keyword("DISTINCT");
            let arg = self.expr()?;
            self.expect_kind(TokenKind::RParen, ")")?;
            return Ok(Expr::Aggregate {
                func,
                arg: Some(Box::new(arg)),
                distinct,
            });
        }
        let mut args = Vec::new();
        if !self.eat_kind(&TokenKind::RParen) {
            loop {
                args.push(self.expr()?);
                if !self.eat_kind(&TokenKind::Comma) {
                    break;
                }
            }
            self.expect_kind(TokenKind::RParen, ")")?;
        }
        Ok(Expr::Function {
            name: name.to_ascii_lowercase(),
            args,
        })
    }

    fn case_expr(&mut self) -> Result<Expr> {
        let mut branches = Vec::new();
        while self.eat_keyword("WHEN") {
            let cond = self.expr()?;
            self.expect_keyword("THEN")?;
            let value = self.expr()?;
            branches.push((cond, value));
        }
        if branches.is_empty() {
            return Err(self.err("CASE requires at least one WHEN branch"));
        }
        let else_branch = if self.eat_keyword("ELSE") {
            Some(Box::new(self.expr()?))
        } else {
            None
        };
        self.expect_keyword("END")?;
        Ok(Expr::Case {
            branches,
            else_branch,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_basic_select() {
        let s = parse_statement(
            "SELECT id, name FROM application WHERE id = 3 ORDER BY name DESC LIMIT 10 OFFSET 2",
        )
        .unwrap();
        match s {
            Statement::Select(sel) => {
                assert_eq!(sel.projections.len(), 2);
                assert_eq!(sel.from.unwrap().table, "application");
                assert!(sel.where_clause.is_some());
                assert_eq!(sel.order_by.len(), 1);
                assert!(sel.order_by[0].descending);
                assert_eq!(sel.limit, Some(10));
                assert_eq!(sel.offset, Some(2));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parses_join() {
        let s = parse_statement(
            "SELECT t.id, e.name FROM trial t JOIN experiment e ON t.experiment = e.id LEFT JOIN metric m ON m.trial = t.id",
        )
        .unwrap();
        match s {
            Statement::Select(sel) => {
                assert_eq!(sel.joins.len(), 2);
                assert_eq!(sel.joins[0].kind, JoinKind::Inner);
                assert_eq!(sel.joins[1].kind, JoinKind::Left);
                assert_eq!(sel.from.unwrap().alias.as_deref(), Some("t"));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parses_aggregates_and_group_by() {
        let s = parse_statement(
            "SELECT node, AVG(exclusive), STDDEV(exclusive), COUNT(*) FROM p GROUP BY node HAVING COUNT(*) > 1",
        )
        .unwrap();
        match s {
            Statement::Select(sel) => {
                assert_eq!(sel.group_by.len(), 1);
                assert!(sel.having.is_some());
                assert!(matches!(
                    sel.projections[3],
                    Projection::Expr {
                        expr: Expr::Aggregate {
                            func: AggregateFn::Count,
                            arg: None,
                            ..
                        },
                        ..
                    }
                ));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parses_create_table() {
        let s = parse_statement(
            "CREATE TABLE IF NOT EXISTS trial (
                id INTEGER PRIMARY KEY AUTO_INCREMENT,
                name VARCHAR(255) NOT NULL,
                experiment INT REFERENCES experiment(id),
                node_count INT DEFAULT 0,
                ok BOOLEAN DEFAULT TRUE)",
        )
        .unwrap();
        match s {
            Statement::CreateTable {
                name,
                columns,
                if_not_exists,
            } => {
                assert_eq!(name, "trial");
                assert!(if_not_exists);
                assert_eq!(columns.len(), 5);
                assert!(columns[0].auto_increment);
                assert!(columns[1].not_null);
                assert_eq!(
                    columns[2].references,
                    Some(("experiment".to_string(), "id".to_string()))
                );
                assert_eq!(columns[3].default, Some(Value::Int(0)));
                assert_eq!(columns[4].default, Some(Value::Bool(true)));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parses_table_level_constraints() {
        let s = parse_statement(
            "CREATE TABLE x (a INT, b INT, PRIMARY KEY (a), FOREIGN KEY (b) REFERENCES y(id))",
        )
        .unwrap();
        match s {
            Statement::CreateTable { columns, .. } => {
                assert!(columns[0].primary_key);
                assert_eq!(columns[1].references, Some(("y".into(), "id".into())));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parses_insert_multi_row() {
        let (s, params) =
            parse_statement_with_params("INSERT INTO m (name, trial) VALUES (?, ?), ('wall', 3)")
                .unwrap();
        assert_eq!(params, 2);
        match s {
            Statement::Insert(ins) => {
                assert_eq!(ins.columns, vec!["name", "trial"]);
                assert_eq!(ins.rows.len(), 2);
                assert_eq!(ins.rows[0][0], Expr::Param(0));
                assert_eq!(ins.rows[1][0], Expr::lit("wall"));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parses_update_delete() {
        let s = parse_statement(
            "UPDATE trial SET name = 'x', node_count = node_count + 1 WHERE id = 9",
        )
        .unwrap();
        assert!(matches!(s, Statement::Update(_)));
        let s = parse_statement("DELETE FROM trial WHERE name LIKE 'tmp%'").unwrap();
        assert!(matches!(s, Statement::Delete(_)));
    }

    #[test]
    fn parses_alter() {
        let s = parse_statement("ALTER TABLE application ADD COLUMN compiler TEXT").unwrap();
        assert!(matches!(s, Statement::AlterTableAddColumn { .. }));
        let s = parse_statement("ALTER TABLE application DROP COLUMN compiler").unwrap();
        assert!(matches!(s, Statement::AlterTableDropColumn { .. }));
    }

    #[test]
    fn parses_index_and_txn() {
        assert!(matches!(
            parse_statement("CREATE UNIQUE INDEX ix ON t (c)").unwrap(),
            Statement::CreateIndex { unique: true, .. }
        ));
        assert!(matches!(
            parse_statement("DROP INDEX ix").unwrap(),
            Statement::DropIndex { .. }
        ));
        assert!(matches!(
            parse_statement("BEGIN").unwrap(),
            Statement::Begin
        ));
        assert!(matches!(
            parse_statement("COMMIT TRANSACTION").unwrap(),
            Statement::Commit
        ));
        assert!(matches!(
            parse_statement("ROLLBACK;").unwrap(),
            Statement::Rollback
        ));
    }

    #[test]
    fn expression_precedence() {
        // 1 + 2 * 3 = 1 + (2*3)
        let s = parse_statement("SELECT 1 + 2 * 3").unwrap();
        match s {
            Statement::Select(sel) => match &sel.projections[0] {
                Projection::Expr {
                    expr:
                        Expr::Binary {
                            op: BinaryOp::Add,
                            right,
                            ..
                        },
                    ..
                } => assert!(matches!(
                    **right,
                    Expr::Binary {
                        op: BinaryOp::Mul,
                        ..
                    }
                )),
                other => panic!("{other:?}"),
            },
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parses_in_between_case() {
        let sqls = [
            "SELECT * FROM t WHERE a IN (1, 2, 3)",
            "SELECT * FROM t WHERE a NOT IN (1)",
            "SELECT * FROM t WHERE a BETWEEN 1 AND 10",
            "SELECT * FROM t WHERE a NOT BETWEEN 1 AND 10",
            "SELECT * FROM t WHERE a IS NULL",
            "SELECT * FROM t WHERE a IS NOT NULL",
            "SELECT CASE WHEN a > 0 THEN 'pos' ELSE 'neg' END FROM t",
            "SELECT CAST(a AS TEXT) FROM t",
            "SELECT COALESCE(a, 0), ABS(-4), LOWER(name) FROM t",
        ];
        for sql in sqls {
            parse_statement(sql).unwrap_or_else(|e| panic!("{sql}: {e}"));
        }
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse_statement("SELEKT 1").is_err());
        assert!(parse_statement("SELECT FROM").is_err());
        assert!(parse_statement("INSERT INTO t VALUES").is_err());
        assert!(parse_statement("SELECT 1 extra garbage ,").is_err());
        assert!(parse_statement("CREATE TABLE t (a WIDGET)").is_err());
    }

    #[test]
    fn table_wildcard_projection() {
        let s = parse_statement("SELECT t.*, e.name FROM t JOIN e ON t.id = e.id").unwrap();
        match s {
            Statement::Select(sel) => {
                assert_eq!(sel.projections[0], Projection::TableWildcard("t".into()));
            }
            other => panic!("{other:?}"),
        }
    }
}
