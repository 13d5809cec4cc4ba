//! SQL tokenizer.

use crate::error::{DbError, Result};

/// A lexical token with its byte position in the source.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Token {
    pub kind: TokenKind,
    pub pos: usize,
}

/// Token kinds. Keywords are recognized case-insensitively and carried as
/// uppercase `Keyword`s; everything else that looks like a name is an
/// `Ident`.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum TokenKind {
    Keyword(String),
    Ident(String),
    /// `"quoted identifier"` (case preserved).
    QuotedIdent(String),
    Int(i64),
    Float(f64),
    Str(String),
    /// `?` positional parameter.
    Param,
    LParen,
    RParen,
    Comma,
    Dot,
    Semicolon,
    Star,
    Plus,
    Minus,
    Slash,
    Percent,
    Eq,
    NotEq,
    Lt,
    LtEq,
    Gt,
    GtEq,
    /// `||` string concatenation.
    Concat,
    Eof,
}

/// Reserved words recognized as keywords.
const KEYWORDS: &[&str] = &[
    "SELECT",
    "FROM",
    "WHERE",
    "GROUP",
    "BY",
    "HAVING",
    "ORDER",
    "ASC",
    "DESC",
    "LIMIT",
    "OFFSET",
    "INSERT",
    "INTO",
    "VALUES",
    "UPDATE",
    "SET",
    "DELETE",
    "CREATE",
    "TABLE",
    "DROP",
    "ALTER",
    "ADD",
    "COLUMN",
    "INDEX",
    "ON",
    "PRIMARY",
    "KEY",
    "NOT",
    "NULL",
    "UNIQUE",
    "DEFAULT",
    "REFERENCES",
    "FOREIGN",
    "AUTO_INCREMENT",
    "AND",
    "OR",
    "IN",
    "IS",
    "LIKE",
    "BETWEEN",
    "AS",
    "JOIN",
    "INNER",
    "LEFT",
    "OUTER",
    "CROSS",
    "DISTINCT",
    "BEGIN",
    "COMMIT",
    "ROLLBACK",
    "TRANSACTION",
    "IF",
    "EXISTS",
    "CASE",
    "WHEN",
    "THEN",
    "ELSE",
    "END",
    "TRUE",
    "FALSE",
    "CAST",
    "UNION",
    "ALL",
    "EXPLAIN",
    "ANALYZE",
];

/// Tokenize SQL text.
pub(crate) fn tokenize(sql: &str) -> Result<Vec<Token>> {
    let bytes = sql.as_bytes();
    let mut tokens = Vec::new();
    let mut i = 0usize;
    while i < bytes.len() {
        // Decode the full char so multi-byte UTF-8 never gets sliced
        // mid-sequence (it can only legally appear in strings/identifiers).
        let c = sql[i..].chars().next().expect("i is on a char boundary");
        let pos = i;
        match c {
            c if c.is_ascii_whitespace() => {
                i += 1;
                continue;
            }
            '-' if bytes.get(i + 1) == Some(&b'-') => {
                // line comment
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
                continue;
            }
            '/' if bytes.get(i + 1) == Some(&b'*') => {
                let end = sql[i + 2..].find("*/").ok_or(DbError::Parse {
                    message: "unterminated block comment".into(),
                    position: pos,
                })?;
                i += 2 + end + 2;
                continue;
            }
            '\'' => {
                // string literal, '' escapes a quote
                let mut s = String::new();
                let mut j = i + 1;
                loop {
                    match bytes.get(j) {
                        None => {
                            return Err(DbError::Parse {
                                message: "unterminated string literal".into(),
                                position: pos,
                            })
                        }
                        Some(b'\'') if bytes.get(j + 1) == Some(&b'\'') => {
                            s.push('\'');
                            j += 2;
                        }
                        Some(b'\'') => {
                            j += 1;
                            break;
                        }
                        Some(_) => {
                            // push full UTF-8 char
                            let ch_start = j;
                            let ch = sql[ch_start..].chars().next().unwrap();
                            s.push(ch);
                            j += ch.len_utf8();
                        }
                    }
                }
                tokens.push(Token {
                    kind: TokenKind::Str(s),
                    pos,
                });
                i = j;
                continue;
            }
            '"' => {
                let end = sql[i + 1..].find('"').ok_or(DbError::Parse {
                    message: "unterminated quoted identifier".into(),
                    position: pos,
                })?;
                tokens.push(Token {
                    kind: TokenKind::QuotedIdent(sql[i + 1..i + 1 + end].to_string()),
                    pos,
                });
                i += end + 2;
                continue;
            }
            c if c.is_ascii_digit()
                || (c == '.' && bytes.get(i + 1).is_some_and(|b| b.is_ascii_digit())) =>
            {
                let mut j = i;
                let mut is_float = false;
                while j < bytes.len() {
                    let b = bytes[j] as char;
                    if b.is_ascii_digit() {
                        j += 1;
                    } else if b == '.' && !is_float {
                        is_float = true;
                        j += 1;
                    } else if (b == 'e' || b == 'E')
                        && j > i
                        && bytes
                            .get(j + 1)
                            .is_some_and(|&n| n.is_ascii_digit() || n == b'+' || n == b'-')
                    {
                        is_float = true;
                        j += 2;
                        while j < bytes.len() && bytes[j].is_ascii_digit() {
                            j += 1;
                        }
                        break;
                    } else {
                        break;
                    }
                }
                let text = &sql[i..j];
                let kind = if is_float {
                    TokenKind::Float(text.parse().map_err(|_| DbError::Parse {
                        message: format!("bad numeric literal {text:?}"),
                        position: pos,
                    })?)
                } else {
                    match text.parse::<i64>() {
                        Ok(v) => TokenKind::Int(v),
                        Err(_) => TokenKind::Float(text.parse().map_err(|_| DbError::Parse {
                            message: format!("bad numeric literal {text:?}"),
                            position: pos,
                        })?),
                    }
                };
                tokens.push(Token { kind, pos });
                i = j;
                continue;
            }
            c if c.is_alphabetic() || c == '_' => {
                let mut j = i;
                for (off, ch) in sql[i..].char_indices() {
                    if ch.is_alphanumeric() || ch == '_' {
                        j = i + off + ch.len_utf8();
                    } else {
                        break;
                    }
                }
                let word = &sql[i..j];
                let upper = word.to_ascii_uppercase();
                let kind = if KEYWORDS.contains(&upper.as_str()) {
                    TokenKind::Keyword(upper)
                } else {
                    TokenKind::Ident(word.to_string())
                };
                tokens.push(Token { kind, pos });
                i = j;
                continue;
            }
            '?' => {
                tokens.push(Token {
                    kind: TokenKind::Param,
                    pos,
                });
                i += 1;
            }
            '(' => {
                tokens.push(Token {
                    kind: TokenKind::LParen,
                    pos,
                });
                i += 1;
            }
            ')' => {
                tokens.push(Token {
                    kind: TokenKind::RParen,
                    pos,
                });
                i += 1;
            }
            ',' => {
                tokens.push(Token {
                    kind: TokenKind::Comma,
                    pos,
                });
                i += 1;
            }
            '.' => {
                tokens.push(Token {
                    kind: TokenKind::Dot,
                    pos,
                });
                i += 1;
            }
            ';' => {
                tokens.push(Token {
                    kind: TokenKind::Semicolon,
                    pos,
                });
                i += 1;
            }
            '*' => {
                tokens.push(Token {
                    kind: TokenKind::Star,
                    pos,
                });
                i += 1;
            }
            '+' => {
                tokens.push(Token {
                    kind: TokenKind::Plus,
                    pos,
                });
                i += 1;
            }
            '-' => {
                tokens.push(Token {
                    kind: TokenKind::Minus,
                    pos,
                });
                i += 1;
            }
            '/' => {
                tokens.push(Token {
                    kind: TokenKind::Slash,
                    pos,
                });
                i += 1;
            }
            '%' => {
                tokens.push(Token {
                    kind: TokenKind::Percent,
                    pos,
                });
                i += 1;
            }
            '=' => {
                tokens.push(Token {
                    kind: TokenKind::Eq,
                    pos,
                });
                i += 1;
            }
            '!' if bytes.get(i + 1) == Some(&b'=') => {
                tokens.push(Token {
                    kind: TokenKind::NotEq,
                    pos,
                });
                i += 2;
            }
            '<' => match bytes.get(i + 1) {
                Some(b'=') => {
                    tokens.push(Token {
                        kind: TokenKind::LtEq,
                        pos,
                    });
                    i += 2;
                }
                Some(b'>') => {
                    tokens.push(Token {
                        kind: TokenKind::NotEq,
                        pos,
                    });
                    i += 2;
                }
                _ => {
                    tokens.push(Token {
                        kind: TokenKind::Lt,
                        pos,
                    });
                    i += 1;
                }
            },
            '>' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    tokens.push(Token {
                        kind: TokenKind::GtEq,
                        pos,
                    });
                    i += 2;
                } else {
                    tokens.push(Token {
                        kind: TokenKind::Gt,
                        pos,
                    });
                    i += 1;
                }
            }
            '|' if bytes.get(i + 1) == Some(&b'|') => {
                tokens.push(Token {
                    kind: TokenKind::Concat,
                    pos,
                });
                i += 2;
            }
            other => {
                return Err(DbError::Parse {
                    message: format!("unexpected character {other:?}"),
                    position: pos,
                })
            }
        }
    }
    tokens.push(Token {
        kind: TokenKind::Eof,
        pos: sql.len(),
    });
    Ok(tokens)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(sql: &str) -> Vec<TokenKind> {
        tokenize(sql).unwrap().into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn keywords_and_idents() {
        use TokenKind::*;
        assert_eq!(
            kinds("select name From trial"),
            vec![
                Keyword("SELECT".into()),
                Ident("name".into()),
                Keyword("FROM".into()),
                Ident("trial".into()),
                Eof
            ]
        );
    }

    #[test]
    fn numbers() {
        use TokenKind::*;
        assert_eq!(
            kinds("1 2.5 .5 1e3 2E-2 9223372036854775807"),
            vec![
                Int(1),
                Float(2.5),
                Float(0.5),
                Float(1000.0),
                Float(0.02),
                Int(i64::MAX),
                Eof
            ]
        );
        // overflowing int falls back to float
        assert!(matches!(kinds("99999999999999999999")[0], Float(_)));
    }

    #[test]
    fn strings_with_escapes() {
        assert_eq!(
            kinds("'it''s'"),
            vec![TokenKind::Str("it's".into()), TokenKind::Eof]
        );
        assert!(tokenize("'open").is_err());
    }

    #[test]
    fn operators() {
        use TokenKind::*;
        assert_eq!(
            kinds("a<=b <> c != d || e"),
            vec![
                Ident("a".into()),
                LtEq,
                Ident("b".into()),
                NotEq,
                Ident("c".into()),
                NotEq,
                Ident("d".into()),
                Concat,
                Ident("e".into()),
                Eof
            ]
        );
    }

    #[test]
    fn comments_skipped() {
        assert_eq!(
            kinds("1 -- line\n 2 /* block\nstill */ 3"),
            vec![
                TokenKind::Int(1),
                TokenKind::Int(2),
                TokenKind::Int(3),
                TokenKind::Eof
            ]
        );
        assert!(tokenize("/* open").is_err());
    }

    #[test]
    fn quoted_identifiers() {
        assert_eq!(
            kinds(r#""Mixed Case Col""#),
            vec![
                TokenKind::QuotedIdent("Mixed Case Col".into()),
                TokenKind::Eof
            ]
        );
    }

    #[test]
    fn params_and_punct() {
        use TokenKind::*;
        assert_eq!(
            kinds("(?, t.x);"),
            vec![
                LParen,
                Param,
                Comma,
                Ident("t".into()),
                Dot,
                Ident("x".into()),
                RParen,
                Semicolon,
                Eof
            ]
        );
    }

    #[test]
    fn unexpected_char() {
        assert!(tokenize("SELECT @").is_err());
    }

    #[test]
    fn unicode_in_strings() {
        assert_eq!(
            kinds("'λ calculus'"),
            vec![TokenKind::Str("λ calculus".into()), TokenKind::Eof]
        );
    }
}
