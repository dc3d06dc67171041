//! Parallel lexical analysis by scanning transition-function compositions.
//!
//! Lexing looks inherently serial — the lexer's state after character `i`
//! depends on the state after `i − 1`. Ladner and Fischer's classic
//! observation (Section 3 of the paper cites it) removes the dependency:
//! map every character to its DFA *transition function*, scan the sequence
//! under function composition (associative!), and read the automaton state
//! at every position in `O(log n)` parallel time.
//!
//! With at most [`MAX_STATES`] states a transition function packs into one
//! 64-bit word (4 bits per entry), so the composition scan runs on the
//! unmodified multi-threaded SAM engine — the same trick that lets
//! segmented scans reuse it.

use sam_core::cpu::CpuScanner;
use sam_core::op::FnOp;
use sam_core::ScanSpec;

/// Maximum number of DFA states a packed transition function supports.
pub const MAX_STATES: usize = 8;

/// A transition function `state -> state`, packed 4 bits per entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Transition(u64);

impl Transition {
    /// The identity function.
    pub fn identity() -> Self {
        let mut bits = 0u64;
        for s in 0..MAX_STATES {
            bits |= (s as u64) << (4 * s);
        }
        Transition(bits)
    }

    /// Builds a transition from a mapping table.
    ///
    /// # Panics
    ///
    /// Panics if the table maps to a state `>= MAX_STATES`.
    pub fn from_table(table: &[u8]) -> Self {
        assert!(table.len() <= MAX_STATES, "too many states");
        let mut t = Self::identity();
        for (from, &to) in table.iter().enumerate() {
            assert!((to as usize) < MAX_STATES, "state {to} out of range");
            t.0 &= !(0xf << (4 * from));
            t.0 |= u64::from(to) << (4 * from);
        }
        t
    }

    /// Applies the function to a state.
    pub fn apply(&self, state: u8) -> u8 {
        (self.0 >> (4 * state) & 0xf) as u8
    }

    /// `self` then `next`: the composition `next ∘ self`.
    pub fn then(&self, next: Transition) -> Transition {
        let mut bits = 0u64;
        for s in 0..MAX_STATES {
            bits |= u64::from(next.apply(self.apply(s as u8))) << (4 * s);
        }
        Transition(bits)
    }

    /// Raw packed bits (for the scan engine).
    pub fn to_bits(self) -> u64 {
        self.0
    }

    /// Reconstructs from packed bits.
    pub fn from_bits(bits: u64) -> Self {
        Transition(bits)
    }
}

/// A deterministic finite automaton over bytes with at most
/// [`MAX_STATES`] states.
#[derive(Debug, Clone)]
pub struct Dfa {
    /// `transitions[byte]` is the packed function applied when reading
    /// `byte`.
    transitions: Box<[Transition; 256]>,
    start: u8,
}

impl Dfa {
    /// Builds a DFA from a per-byte transition table:
    /// `table[byte][state] = next state`.
    ///
    /// # Panics
    ///
    /// Panics if any entry maps outside `0..MAX_STATES` or `start` does.
    pub fn new(table: &[[u8; MAX_STATES]; 256], start: u8) -> Self {
        assert!((start as usize) < MAX_STATES);
        let transitions: Vec<Transition> = table
            .iter()
            .map(|row| Transition::from_table(row))
            .collect();
        Dfa {
            transitions: transitions.try_into().expect("256 rows"),
            start,
        }
    }

    /// The start state.
    pub fn start(&self) -> u8 {
        self.start
    }

    /// Serial reference run: the state *after* each input byte.
    pub fn run_serial(&self, input: &[u8]) -> Vec<u8> {
        let mut state = self.start;
        input
            .iter()
            .map(|&b| {
                state = self.transitions[b as usize].apply(state);
                state
            })
            .collect()
    }

    /// Parallel run via a composition scan on the SAM engine: the state
    /// after each input byte, bit-identical to [`Dfa::run_serial`].
    pub fn run_parallel(&self, input: &[u8], scanner: &CpuScanner) -> Vec<u8> {
        let funcs: Vec<u64> = input
            .iter()
            .map(|&b| self.transitions[b as usize].to_bits())
            .collect();
        let compose = FnOp::new(Transition::identity().to_bits(), |a: u64, b: u64| {
            Transition::from_bits(a)
                .then(Transition::from_bits(b))
                .to_bits()
        });
        let composed = scanner.scan(&funcs, &compose, &ScanSpec::inclusive());
        composed
            .into_iter()
            .map(|bits| Transition::from_bits(bits).apply(self.start))
            .collect()
    }
}

/// Token kinds of the mini-language lexer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenKind {
    /// `[A-Za-z_][A-Za-z0-9_]*`
    Ident,
    /// `[0-9]+`
    Int,
    /// Any single punctuation/operator byte.
    Symbol,
}

/// A token: kind plus byte range in the input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Token {
    /// Token kind.
    pub kind: TokenKind,
    /// Start byte offset (inclusive).
    pub start: usize,
    /// End byte offset (exclusive).
    pub end: usize,
}

// Lexer DFA states.
const WHITE: u8 = 0;
const IDENT: u8 = 1;
const INT: u8 = 2;
const SYM: u8 = 3;

/// Builds the mini-language lexer DFA (identifiers, integers, symbols,
/// whitespace).
pub fn lexer_dfa() -> Dfa {
    let mut table = [[WHITE; MAX_STATES]; 256];
    for (b, row) in table.iter_mut().enumerate() {
        let c = b as u8;
        let next = if c.is_ascii_alphabetic() || c == b'_' {
            // A letter continues an identifier and *starts* one after
            // anything else (including after a number: `1ab` lexes as
            // `1`, `ab`).
            IDENT
        } else if c.is_ascii_digit() {
            // A digit continues an identifier but otherwise forms an int.
            0xff // marker: depends on current state
        } else if c.is_ascii_whitespace() {
            WHITE
        } else {
            SYM
        };
        for state in 0..MAX_STATES as u8 {
            row[state as usize] = match next {
                0xff => {
                    if state == IDENT {
                        IDENT
                    } else {
                        INT
                    }
                }
                s => s,
            };
        }
    }
    Dfa::new(&table, WHITE)
}

/// Tokenizes `input` with the composition-scan lexer.
///
/// The DFA run is the parallel part; token extraction reads the state
/// sequence. Symbols are single-byte tokens; identifier/integer tokens are
/// maximal runs of their state.
pub fn tokenize(input: &[u8], scanner: &CpuScanner) -> Vec<Token> {
    let states = lexer_dfa().run_parallel(input, scanner);
    tokens_from_states(&states)
}

/// Serial reference tokenizer (same DFA, serial run).
pub fn tokenize_serial(input: &[u8]) -> Vec<Token> {
    let states = lexer_dfa().run_serial(input);
    tokens_from_states(&states)
}

fn tokens_from_states(states: &[u8]) -> Vec<Token> {
    let mut tokens = Vec::new();
    let mut open: Option<Token> = None;
    for (i, &s) in states.iter().enumerate() {
        let kind = match s {
            IDENT => Some(TokenKind::Ident),
            INT => Some(TokenKind::Int),
            SYM => Some(TokenKind::Symbol),
            _ => None,
        };
        let continues = match (&open, kind) {
            (Some(t), Some(k)) => t.kind == k && k != TokenKind::Symbol && states[i - 1] == s,
            _ => false,
        };
        if continues {
            open = open.map(|t| Token { end: i + 1, ..t });
        } else {
            if let Some(t) = open.take() {
                tokens.push(t);
            }
            if let Some(k) = kind {
                open = Some(Token {
                    kind: k,
                    start: i,
                    end: i + 1,
                });
            }
        }
    }
    if let Some(t) = open {
        tokens.push(t);
    }
    tokens
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scanner() -> CpuScanner {
        CpuScanner::new(4).with_chunk_elems(64)
    }

    #[test]
    fn transition_identity_and_composition() {
        let id = Transition::identity();
        for s in 0..MAX_STATES as u8 {
            assert_eq!(id.apply(s), s);
        }
        let f = Transition::from_table(&[1, 2, 3, 0]);
        let g = Transition::from_table(&[3, 2, 1, 0]);
        let fg = f.then(g); // apply f, then g
        for s in 0..4u8 {
            assert_eq!(fg.apply(s), g.apply(f.apply(s)));
        }
        assert_eq!(id.then(f), f);
        assert_eq!(f.then(id), f);
    }

    #[test]
    fn composition_is_associative() {
        let fs = [
            Transition::from_table(&[1, 1, 2, 3]),
            Transition::from_table(&[0, 2, 2, 1]),
            Transition::from_table(&[3, 0, 1, 2]),
        ];
        for &a in &fs {
            for &b in &fs {
                for &c in &fs {
                    assert_eq!(a.then(b).then(c), a.then(b.then(c)));
                }
            }
        }
    }

    #[test]
    fn parallel_run_matches_serial() {
        let dfa = lexer_dfa();
        let input = b"let x1 = 42 + foo_bar(3, baz);\nwhile x1 < 100 { x1 = x1 * 2; }";
        let serial = dfa.run_serial(input);
        let parallel = dfa.run_parallel(input, &scanner());
        assert_eq!(serial, parallel);
    }

    #[test]
    fn tokenize_mini_program() {
        let toks = tokenize_serial(b"foo = bar1 + 42;");
        let kinds: Vec<TokenKind> = toks.iter().map(|t| t.kind).collect();
        use TokenKind::*;
        assert_eq!(kinds, vec![Ident, Symbol, Ident, Symbol, Int, Symbol]);
        assert_eq!(toks[0].start, 0);
        assert_eq!(toks[0].end, 3);
        assert_eq!(toks[4].start, 13);
        assert_eq!(toks[4].end, 15);
    }

    #[test]
    fn parallel_tokens_match_serial_on_large_input() {
        let mut src = Vec::new();
        for i in 0..2000 {
            src.extend_from_slice(format!("var{i} = {i} * (alpha_{i} + {});\n", i * 7).as_bytes());
        }
        let serial = tokenize_serial(&src);
        let parallel = tokenize(&src, &scanner());
        assert_eq!(serial, parallel);
        assert!(serial.len() > 10_000);
    }

    #[test]
    fn number_then_letter_splits_tokens() {
        let toks = tokenize_serial(b"1ab");
        use TokenKind::*;
        assert_eq!(
            toks.iter().map(|t| t.kind).collect::<Vec<_>>(),
            vec![Int, Ident]
        );
    }

    #[test]
    fn adjacent_symbols_are_separate_tokens() {
        let toks = tokenize_serial(b"a+=b");
        assert_eq!(toks.len(), 4);
        assert_eq!(toks[1].kind, TokenKind::Symbol);
        assert_eq!(toks[2].kind, TokenKind::Symbol);
    }

    #[test]
    fn empty_input() {
        assert!(tokenize(b"", &scanner()).is_empty());
    }
}
