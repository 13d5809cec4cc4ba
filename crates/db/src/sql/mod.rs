pub(crate) mod ast;
pub(crate) mod lexer;
pub(crate) mod parser;
