//! Regular-expression parsing and compilation to the Glushkov position
//! automaton: an ε-free NFA whose states are the pattern's class leaves,
//! so every state is entered on one symbol class — the homogeneous shape
//! an automata processor runs (paper Section IV.A, Fig. 5b).

use crate::{AutomataError, Nfa, SymbolClass};
use memcim_bits::BitVec;

/// Maximum expansion of a bounded repetition `{m,n}`.
const MAX_REPEAT: u32 = 256;

/// Most Glushkov positions (class leaves, so automaton states less the
/// start) one pattern, or one [`PatternSet`](crate::PatternSet) summed
/// over its patterns, may compile to.
///
/// [`MAX_REPEAT`](Regex) caps each repeat but not their product: the
/// 12-byte `(a{256}){64}` would expand to 16,384 positions, and each
/// further `{256}` level multiplies that by 256. Parsing counts
/// positions as it builds the syntax tree and refuses with
/// [`AutomataError::TooManyPositions`] *before* an expansion past this
/// cap allocates. The automaton's routing matrix and follow sets grow
/// as positions², so 4,096 positions keep one compile to a few MiB.
pub const MAX_POSITIONS: usize = 4096;

/// Most syntax-tree nodes one pattern, or one
/// [`PatternSet`](crate::PatternSet) summed over its patterns, may parse
/// to.
///
/// Positions alone do not bound the tree: a repeat copies every node of
/// its operand, and an operand of few or no positions can still be many
/// nodes — `((((){256}){256}){256}){256}` holds no position at all but
/// would expand to 256⁴ empty nodes, and `(a(||…|)){256}` copies a long
/// alternation of empties 256 times. Parsing counts nodes alongside
/// positions and refuses with [`AutomataError::TooManyNodes`] before an
/// expansion past this cap allocates. Realistic patterns stay under a
/// few nodes per position.
pub const MAX_NODES: usize = 16 * MAX_POSITIONS;

/// Deepest group nesting, and deepest syntax tree, one pattern may
/// parse to.
///
/// Parsing, compiling and dropping a tree all recurse along its depth,
/// so a pattern of a few KiB — 5,000 nested groups, or one class under
/// thousands of stacked quantifiers (`a****…`) — would overflow a
/// thread's stack and abort the process. Parsing refuses with
/// [`AutomataError::TooDeep`] as soon as either passes this cap.
pub const MAX_DEPTH: usize = 128;

/// Positions and syntax-tree nodes of a tree (or of the running total
/// of a pattern set), both checked against their caps as it grows.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct Size {
    positions: usize,
    nodes: usize,
}

impl Size {
    const LEAF: Self = Self { positions: 1, nodes: 1 };
    const NODE: Self = Self { positions: 0, nodes: 1 };

    pub(crate) fn plus(self, other: Self) -> Self {
        Self {
            positions: self.positions.saturating_add(other.positions),
            nodes: self.nodes.saturating_add(other.nodes),
        }
    }

    fn minus(self, other: Self) -> Self {
        Self { positions: self.positions - other.positions, nodes: self.nodes - other.nodes }
    }

    /// `copies` of a tree of this size under `wrappers` more nodes.
    fn times(self, copies: usize, wrappers: usize) -> Self {
        Self {
            positions: self.positions.saturating_mul(copies),
            nodes: self.nodes.saturating_mul(copies).saturating_add(wrappers),
        }
    }
}

/// A parsed regular expression, compilable to an [`Nfa`].
///
/// Supported syntax (byte semantics — `.` matches any byte):
/// literals, `.`, `|`, `*`, `+`, `?`, grouping `( … )`, bounded repeats
/// `{m}`, `{m,}`, `{m,n}`, classes `[a-z0-9]` / negated `[^…]`, and the
/// escapes `\d \w \s \D \W \S \n \r \t \0 \xHH` plus escaped
/// metacharacters.
///
/// # Examples
///
/// ```
/// use memcim_automata::Regex;
///
/// # fn main() -> Result<(), memcim_automata::AutomataError> {
/// let re = Regex::parse(r"GET /[a-z]+\.html")?;
/// assert!(re.compile().accepts(b"GET /index.html"));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Regex {
    ast: Ast,
    pattern: String,
    size: Size,
}

#[derive(Debug, Clone, PartialEq)]
enum Ast {
    Empty,
    Class(SymbolClass),
    Concat(Vec<Ast>),
    Alt(Vec<Ast>),
    Star(Box<Ast>),
}

impl Regex {
    /// Parses a pattern.
    ///
    /// # Errors
    ///
    /// Returns [`AutomataError::ParseRegex`] with the failing byte offset
    /// for malformed syntax, [`AutomataError::InvalidRepetition`] for
    /// bounds like `{3,1}` or repeats beyond 256, and
    /// [`AutomataError::TooManyPositions`] for a pattern of more than
    /// [`MAX_POSITIONS`] positions, [`AutomataError::TooManyNodes`] for
    /// one whose syntax tree would pass [`MAX_NODES`] nodes and
    /// [`AutomataError::TooDeep`] for one nested past [`MAX_DEPTH`].
    pub fn parse(pattern: &str) -> Result<Self, AutomataError> {
        Self::parse_after(pattern, Size::default())
    }

    /// [`parse`](Self::parse) as the next pattern of a set whose earlier
    /// patterns already hold `used`: the [`MAX_POSITIONS`] and
    /// [`MAX_NODES`] caps apply to the running totals.
    pub(crate) fn parse_after(pattern: &str, used: Size) -> Result<Self, AutomataError> {
        let mut p = Parser { bytes: pattern.as_bytes(), pos: 0, size: used, nesting: 0 };
        let (ast, _depth) = p.alternation()?;
        if p.pos != p.bytes.len() {
            return Err(p.error("unexpected trailing input (unbalanced ')'?)"));
        }
        Ok(Self { ast, pattern: pattern.to_string(), size: p.size.minus(used) })
    }

    /// Glushkov positions (class leaves) of the pattern: its automaton
    /// has one more state, the start.
    pub fn positions(&self) -> usize {
        self.size.positions
    }

    /// Positions and syntax-tree nodes of the pattern.
    pub(crate) fn size(&self) -> Size {
        self.size
    }

    /// The original pattern text.
    pub fn pattern(&self) -> &str {
        &self.pattern
    }

    /// Compiles to the Glushkov position automaton, an ε-free NFA.
    ///
    /// State 0 is the start and accepts iff the pattern matches ε; state
    /// `i + 1` is the `i`-th class leaf of the pattern, counted left to
    /// right, entered only on that leaf's class, and accepting iff a
    /// match can end on it. Every state is reachable from the start and
    /// reaches an accepting state over the edge relation, so the machine
    /// is trim (even behind an empty class such as `[^\x00-\xff]`).
    pub fn compile(&self) -> Nfa {
        Glushkov::compile(&self.ast, self.size.positions)
    }

    /// Samples a random string matched by this pattern (used by workload
    /// generators to plant true positives in synthetic traffic).
    /// Star-quantified subexpressions repeat 0–3 times.
    pub fn sample<R: rand::Rng + ?Sized>(&self, rng: &mut R) -> Vec<u8> {
        fn walk<R: rand::Rng + ?Sized>(ast: &Ast, rng: &mut R, out: &mut Vec<u8>) {
            match ast {
                Ast::Empty => {}
                Ast::Class(c) => {
                    let k = rng.gen_range(0..c.len().max(1));
                    if let Some(b) = c.iter().nth(k) {
                        out.push(b);
                    }
                }
                Ast::Concat(parts) => {
                    for p in parts {
                        walk(p, rng, out);
                    }
                }
                Ast::Alt(branches) => {
                    let k = rng.gen_range(0..branches.len());
                    walk(&branches[k], rng, out);
                }
                Ast::Star(inner) => {
                    for _ in 0..rng.gen_range(0..=3) {
                        walk(inner, rng, out);
                    }
                }
            }
        }
        let mut out = Vec::new();
        walk(&self.ast, rng, &mut out);
        out
    }
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Positions and nodes of the tree built so far (plus those of
    /// earlier patterns of the same set), kept within [`MAX_POSITIONS`]
    /// and [`MAX_NODES`].
    size: Size,
    /// Groups open around the parse position, kept within
    /// [`MAX_DEPTH`].
    nesting: usize,
}

impl Parser<'_> {
    fn error(&self, message: &str) -> AutomataError {
        AutomataError::ParseRegex { position: self.pos, message: message.to_string() }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        Some(b)
    }

    /// Accounts a subtree of size `from` becoming one of size `to` (a
    /// new node, or a quantifier's copies) and returns `to`, refusing
    /// before the subtree is built if the tree would pass
    /// [`MAX_POSITIONS`] or [`MAX_NODES`].
    fn resize(&mut self, from: Size, to: Size) -> Result<Size, AutomataError> {
        let total = self.size.minus(from).plus(to);
        if total.positions > MAX_POSITIONS {
            let positions = total.positions;
            return Err(AutomataError::TooManyPositions { positions, limit: MAX_POSITIONS });
        }
        if total.nodes > MAX_NODES {
            return Err(AutomataError::TooManyNodes { nodes: total.nodes, limit: MAX_NODES });
        }
        self.size = total;
        Ok(to)
    }

    /// Refuses a depth (of group nesting, or of a tree about to be
    /// built) past [`MAX_DEPTH`].
    fn deepen(&self, depth: usize) -> Result<usize, AutomataError> {
        if depth > MAX_DEPTH {
            return Err(AutomataError::TooDeep { depth, limit: MAX_DEPTH });
        }
        Ok(depth)
    }

    // Each production returns its tree and the tree's depth (at most;
    // exact but for `{m,n}`).

    fn alternation(&mut self) -> Result<(Ast, usize), AutomataError> {
        let (first, mut depth) = self.concat()?;
        let mut branches = vec![first];
        while self.peek() == Some(b'|') {
            self.pos += 1;
            let (branch, branch_depth) = self.concat()?;
            depth = depth.max(branch_depth);
            branches.push(branch);
        }
        if branches.len() == 1 {
            return Ok((branches.pop().expect("one branch"), depth));
        }
        self.resize(Size::default(), Size::NODE)?;
        Ok((Ast::Alt(branches), self.deepen(depth + 1)?))
    }

    fn concat(&mut self) -> Result<(Ast, usize), AutomataError> {
        let mut parts = Vec::new();
        let mut depth = 0;
        while let Some(b) = self.peek() {
            if b == b'|' || b == b')' {
                break;
            }
            let (part, part_depth) = self.repeat()?;
            depth = depth.max(part_depth);
            parts.push(part);
        }
        if parts.len() == 1 {
            return Ok((parts.pop().expect("one part"), depth));
        }
        self.resize(Size::default(), Size::NODE)?;
        let depth = self.deepen(depth + 1)?;
        Ok((if parts.is_empty() { Ast::Empty } else { Ast::Concat(parts) }, depth))
    }

    fn repeat(&mut self) -> Result<(Ast, usize), AutomataError> {
        let before = self.size;
        let (mut node, mut depth) = self.atom()?;
        // Size of `node`, tracked through each quantifier.
        let mut size = self.size.minus(before);
        loop {
            match self.peek() {
                Some(b'*') => {
                    self.pos += 1;
                    depth = self.deepen(depth + 1)?;
                    size = self.resize(size, size.times(1, 1))?;
                    node = Ast::Star(Box::new(node));
                }
                Some(b'+') => {
                    self.pos += 1;
                    depth = self.deepen(depth + 2)?;
                    size = self.resize(size, size.times(2, 2))?;
                    node = Ast::Concat(vec![node.clone(), Ast::Star(Box::new(node))]);
                }
                Some(b'?') => {
                    self.pos += 1;
                    depth = self.deepen(depth + 1)?;
                    size = self.resize(size, size.times(1, 2))?;
                    node = Ast::Alt(vec![node, Ast::Empty]);
                }
                Some(b'{') => {
                    let open = self.pos;
                    self.pos += 1;
                    let (min, max) = self.bounds(open)?;
                    // A `Concat` over copies, optional or starred ones.
                    depth = self.deepen(depth + 2)?;
                    size = self.resize(size, repeated(size, min, max))?;
                    node = expand_repeat(node, min, max);
                }
                _ => break,
            }
        }
        Ok((node, depth))
    }

    /// Parses `{m}`, `{m,}` or `{m,n}` after the opening brace.
    fn bounds(&mut self, open: usize) -> Result<(u32, Option<u32>), AutomataError> {
        let min = self.number(open)?;
        match self.bump() {
            Some(b'}') => Ok((min, Some(min))),
            Some(b',') => {
                if self.peek() == Some(b'}') {
                    self.pos += 1;
                    return Ok((min, None));
                }
                let max = self.number(open)?;
                if self.bump() != Some(b'}') {
                    return Err(self.error("expected '}' after repetition bounds"));
                }
                if max < min {
                    return Err(AutomataError::InvalidRepetition { position: open });
                }
                Ok((min, Some(max)))
            }
            _ => Err(self.error("expected '}' or ',' in repetition")),
        }
    }

    fn number(&mut self, open: usize) -> Result<u32, AutomataError> {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if start == self.pos {
            return Err(self.error("expected a number in repetition bounds"));
        }
        let text = core::str::from_utf8(&self.bytes[start..self.pos]).expect("digits");
        let n: u32 =
            text.parse().map_err(|_| AutomataError::InvalidRepetition { position: open })?;
        if n > MAX_REPEAT {
            return Err(AutomataError::InvalidRepetition { position: open });
        }
        Ok(n)
    }

    fn atom(&mut self) -> Result<(Ast, usize), AutomataError> {
        let class = match self.bump() {
            None => return Err(self.error("unexpected end of pattern")),
            Some(b'(') => {
                self.nesting = self.deepen(self.nesting + 1)?;
                let inner = self.alternation()?;
                if self.bump() != Some(b')') {
                    return Err(self.error("unbalanced '('"));
                }
                self.nesting -= 1;
                return Ok(inner);
            }
            Some(b'[') => self.class()?,
            Some(b'.') => SymbolClass::ANY,
            Some(b'\\') => self.escape()?,
            Some(b @ (b'*' | b'+' | b'?' | b'{' | b')')) => {
                self.pos -= 1;
                return Err(self.error(match b {
                    b')' => "unbalanced ')'",
                    _ => "quantifier with nothing to repeat",
                }));
            }
            Some(b) => SymbolClass::of(b),
        };
        self.resize(Size::default(), Size::LEAF)?;
        Ok((Ast::Class(class), 1))
    }

    fn escape(&mut self) -> Result<SymbolClass, AutomataError> {
        match self.bump() {
            None => Err(self.error("dangling escape")),
            Some(b'd') => Ok(SymbolClass::range(b'0', b'9')),
            Some(b'D') => Ok(SymbolClass::range(b'0', b'9').complement()),
            Some(b'w') => Ok(word_class()),
            Some(b'W') => Ok(word_class().complement()),
            Some(b's') => Ok(SymbolClass::from_bytes(b" \t\n\r\x0b\x0c")),
            Some(b'S') => Ok(SymbolClass::from_bytes(b" \t\n\r\x0b\x0c").complement()),
            Some(b'n') => Ok(SymbolClass::of(b'\n')),
            Some(b'r') => Ok(SymbolClass::of(b'\r')),
            Some(b't') => Ok(SymbolClass::of(b'\t')),
            Some(b'0') => Ok(SymbolClass::of(0)),
            Some(b'x') => {
                let hi = self.hex_digit()?;
                let lo = self.hex_digit()?;
                Ok(SymbolClass::of(hi * 16 + lo))
            }
            Some(b) => Ok(SymbolClass::of(b)),
        }
    }

    fn hex_digit(&mut self) -> Result<u8, AutomataError> {
        match self.bump() {
            Some(b @ b'0'..=b'9') => Ok(b - b'0'),
            Some(b @ b'a'..=b'f') => Ok(b - b'a' + 10),
            Some(b @ b'A'..=b'F') => Ok(b - b'A' + 10),
            _ => Err(self.error("expected a hex digit after \\x")),
        }
    }

    fn class(&mut self) -> Result<SymbolClass, AutomataError> {
        let negated = if self.peek() == Some(b'^') {
            self.pos += 1;
            true
        } else {
            false
        };
        let mut class = SymbolClass::EMPTY;
        let mut first = true;
        loop {
            match self.bump() {
                None => return Err(self.error("unterminated character class")),
                Some(b']') if !first => break,
                Some(b) => {
                    first = false;
                    let item = if b == b'\\' { self.escape()? } else { SymbolClass::of(b) };
                    // A range needs a single-symbol left side and '-' not
                    // followed by ']'.
                    if item.len() == 1
                        && self.peek() == Some(b'-')
                        && self.bytes.get(self.pos + 1).copied().is_some_and(|n| n != b']')
                    {
                        self.pos += 1; // consume '-'
                        let hi_byte = self.bump().expect("checked");
                        let hi = if hi_byte == b'\\' {
                            self.escape()?
                        } else {
                            SymbolClass::of(hi_byte)
                        };
                        if hi.len() != 1 {
                            return Err(self.error("range endpoint must be a single symbol"));
                        }
                        let lo_sym = item.iter().next().expect("single");
                        let hi_sym = hi.iter().next().expect("single");
                        if hi_sym < lo_sym {
                            return Err(self.error("reversed range in character class"));
                        }
                        class = class.union(&SymbolClass::range(lo_sym, hi_sym));
                    } else {
                        class = class.union(&item);
                    }
                }
            }
        }
        Ok(if negated { class.complement() } else { class })
    }
}

fn word_class() -> SymbolClass {
    SymbolClass::range(b'a', b'z')
        .union(&SymbolClass::range(b'A', b'Z'))
        .union(&SymbolClass::range(b'0', b'9'))
        .union(&SymbolClass::of(b'_'))
}

/// The size of [`expand_repeat`]`(node, min, max)` for a `node` of
/// `size`: `{m,}` is m copies and a starred one, `{m,n}` is m copies and
/// n − m optional ones (each an `Alt` with an `Empty`), all under one
/// `Concat` unless a single part (or none, an `Empty`) remains.
fn repeated(size: Size, min: u32, max: Option<u32>) -> Size {
    let min = min as usize;
    let (parts, wrappers) = match max {
        None => (min + 1, 1),
        Some(max) => (max as usize, 2 * (max as usize - min)),
    };
    let concat = usize::from(parts != 1);
    size.times(parts, wrappers + concat)
}

/// Expands `{m,n}` / `{m,}` at the AST level.
fn expand_repeat(node: Ast, min: u32, max: Option<u32>) -> Ast {
    let mut parts = Vec::new();
    for _ in 0..min {
        parts.push(node.clone());
    }
    match max {
        None => parts.push(Ast::Star(Box::new(node))),
        Some(max) => {
            for _ in min..max {
                parts.push(Ast::Alt(vec![node.clone(), Ast::Empty]));
            }
        }
    }
    match parts.len() {
        0 => Ast::Empty,
        1 => parts.pop().expect("one"),
        _ => Ast::Concat(parts),
    }
}

// ---------------------------------------------------------------------------
// Glushkov position automaton
// ---------------------------------------------------------------------------

/// What a subexpression contributes to the position automaton: whether
/// it matches ε, and the positions its matches can begin and end on.
struct Span {
    nullable: bool,
    first: BitVec,
    last: BitVec,
}

impl Span {
    fn new(positions: usize, nullable: bool) -> Self {
        Self { nullable, first: BitVec::new(positions), last: BitVec::new(positions) }
    }
}

/// The positions (class leaves, numbered left to right) of an [`Ast`]
/// and the `follow` relation between them.
struct Glushkov {
    classes: Vec<SymbolClass>,
    follow: Vec<BitVec>,
}

impl Glushkov {
    /// The automaton of `ast`, whose class leaves number `n`.
    fn compile(ast: &Ast, n: usize) -> Nfa {
        let mut g = Self { classes: Vec::with_capacity(n), follow: vec![BitVec::new(n); n] };
        let root = g.span(ast);
        let mut nfa = Nfa::new();
        let start = nfa.add_state();
        nfa.add_start(start);
        nfa.set_accept(start, root.nullable);
        for i in 0..n {
            let state = nfa.add_state();
            nfa.set_accept(state, root.last.get(i));
        }
        let edges = std::iter::once((start, &root.first))
            .chain(g.follow.iter().enumerate().map(|(i, follow)| (i + 1, follow)));
        for (from, targets) in edges {
            for j in targets.ones() {
                nfa.add_transition(from, g.classes[j], j + 1);
            }
        }
        nfa
    }

    fn span(&mut self, ast: &Ast) -> Span {
        let n = self.follow.len();
        match ast {
            Ast::Empty => Span::new(n, true),
            Ast::Class(c) => {
                let at = BitVec::from_indices(n, &[self.classes.len()]);
                self.classes.push(*c);
                Span { nullable: false, first: at.clone(), last: at }
            }
            Ast::Concat(parts) => {
                let mut acc = Span::new(n, true);
                for part in parts {
                    let next = self.span(part);
                    self.link(&acc.last, &next.first);
                    if acc.nullable {
                        acc.first.or_assign(&next.first);
                    }
                    if next.nullable {
                        acc.last.or_assign(&next.last);
                    } else {
                        acc.last = next.last;
                    }
                    acc.nullable &= next.nullable;
                }
                acc
            }
            Ast::Alt(branches) => {
                let mut acc = Span::new(n, false);
                for branch in branches {
                    let next = self.span(branch);
                    acc.nullable |= next.nullable;
                    acc.first.or_assign(&next.first);
                    acc.last.or_assign(&next.last);
                }
                acc
            }
            Ast::Star(inner) => {
                let inner = self.span(inner);
                self.link(&inner.last, &inner.first);
                Span { nullable: true, ..inner }
            }
        }
    }

    /// Every position in `from` may be followed by every position in `to`.
    fn link(&mut self, from: &BitVec, to: &BitVec) {
        for i in from.ones() {
            self.follow[i].or_assign(to);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn accepts(pattern: &str, input: &[u8]) -> bool {
        Regex::parse(pattern).expect("pattern parses").compile().accepts(input)
    }

    #[test]
    fn literals_and_concat() {
        assert!(accepts("abc", b"abc"));
        assert!(!accepts("abc", b"ab"));
        assert!(!accepts("abc", b"abcd"));
    }

    #[test]
    fn alternation_and_grouping() {
        assert!(accepts("a(b|c)d", b"abd"));
        assert!(accepts("a(b|c)d", b"acd"));
        assert!(!accepts("a(b|c)d", b"ad"));
        assert!(accepts("ab|cd", b"cd"));
    }

    #[test]
    fn kleene_star_plus_opt() {
        assert!(accepts("ab*c", b"ac"));
        assert!(accepts("ab*c", b"abbbbc"));
        assert!(accepts("ab+c", b"abc"));
        assert!(!accepts("ab+c", b"ac"));
        assert!(accepts("ab?c", b"ac"));
        assert!(accepts("ab?c", b"abc"));
        assert!(!accepts("ab?c", b"abbc"));
    }

    #[test]
    fn bounded_repeats() {
        assert!(accepts("a{3}", b"aaa"));
        assert!(!accepts("a{3}", b"aa"));
        assert!(!accepts("a{3}", b"aaaa"));
        assert!(accepts("a{2,4}", b"aa"));
        assert!(accepts("a{2,4}", b"aaaa"));
        assert!(!accepts("a{2,4}", b"aaaaa"));
        assert!(accepts("a{2,}", b"aaaaaaa"));
        assert!(!accepts("a{2,}", b"a"));
    }

    #[test]
    fn classes_ranges_negation() {
        assert!(accepts("[a-c]+", b"abcba"));
        assert!(!accepts("[a-c]+", b"abd"));
        assert!(accepts("[^0-9]", b"x"));
        assert!(!accepts("[^0-9]", b"5"));
        assert!(accepts("[-a]", b"-")); // literal '-' at edge
        assert!(accepts("[a-]", b"-"));
    }

    #[test]
    fn escapes() {
        assert!(accepts(r"\d+", b"12345"));
        assert!(!accepts(r"\d+", b"12a45"));
        assert!(accepts(r"\w+", b"hello_World9"));
        assert!(accepts(r"\s", b" "));
        assert!(accepts(r"\x41", b"A"));
        assert!(accepts(r"a\.b", b"a.b"));
        assert!(!accepts(r"a\.b", b"axb"));
        assert!(accepts(r"\\", b"\\"));
    }

    #[test]
    fn dot_matches_any_byte() {
        assert!(accepts("a.c", b"a\nc"));
        assert!(accepts("a.c", &[b'a', 0xff, b'c']));
    }

    #[test]
    fn empty_pattern_matches_empty_input() {
        assert!(accepts("", b""));
        assert!(!accepts("", b"a"));
        assert!(accepts("a|", b""));
        assert!(accepts("a|", b"a"));
    }

    #[test]
    fn nested_quantifiers() {
        assert!(accepts("(ab)+", b"ababab"));
        assert!(!accepts("(ab)+", b"aba"));
        assert!(accepts("(a|b)*c", b"abbac"));
        assert!(accepts("((a|b)c)*", b"acbc"));
    }

    #[test]
    fn parse_errors_carry_positions() {
        for (pat, what) in [
            ("a(b", "unbalanced"),
            ("a)b", "unbalanced"),
            ("*a", "quantifier"),
            ("[abc", "unterminated"),
            (r"a\x4", "hex"),
            ("a{3,1}", ""),
            ("a{2,", ""),
        ] {
            let err = Regex::parse(pat).expect_err(pat);
            if !what.is_empty() {
                assert!(err.to_string().contains(what), "{pat}: {err}");
            }
        }
    }

    #[test]
    fn repeat_cap_is_enforced() {
        assert!(matches!(Regex::parse("a{999}"), Err(AutomataError::InvalidRepetition { .. })));
    }

    #[test]
    fn parsing_counts_every_node_it_builds() {
        fn nodes(ast: &Ast) -> usize {
            1 + match ast {
                Ast::Empty | Ast::Class(_) => 0,
                Ast::Concat(parts) | Ast::Alt(parts) => parts.iter().map(nodes).sum(),
                Ast::Star(inner) => nodes(inner),
            }
        }
        for pattern in [
            "",
            "a",
            "ab",
            "a|",
            "|",
            "()",
            "(|)",
            "a*",
            "a+",
            "a?",
            "(ab)+c?",
            "a{0}",
            "a{1}",
            "a{3}",
            "a{0,}",
            "a{2,}",
            "a{0,3}",
            "a{2,5}",
            "(a|b){2,4}x*",
            "((a{0}){3}){2}",
            "(a(||)){4}",
            "[a-z]+\\.(com|org)?",
        ] {
            let regex = Regex::parse(pattern).expect(pattern);
            assert_eq!(regex.size.nodes, nodes(&regex.ast), "{pattern}");
        }
    }

    #[test]
    fn pattern_accessor_round_trips() {
        let re = Regex::parse("a[bc]+").expect("parses");
        assert_eq!(re.pattern(), "a[bc]+");
    }

    #[test]
    fn compiled_nfa_is_epsilon_free_and_pruned() {
        let nfa = Regex::parse("(a|b)*abb").expect("parses").compile();
        // All states must be reachable and carry symbol transitions only
        // (ε-freedom is structural — Nfa has no ε representation).
        assert_eq!(nfa.state_count(), 6, "the start plus one state per class leaf");
        assert!(nfa.accepts(b"abb"));
        assert!(nfa.accepts(b"aababb"));
        assert!(!nfa.accepts(b"ab"));
    }

    #[test]
    fn state_after_the_start_is_numbered_by_class_leaf() {
        let nfa = Regex::parse("a(b|c)*d").expect("parses").compile();
        let leaves = [b'a', b'b', b'c', b'd'].map(SymbolClass::of);
        assert_eq!(nfa.state_count(), leaves.len() + 1);
        assert_eq!(nfa.starts(), &[0]);
        let mut entered = [false; 4];
        for state in 0..nfa.state_count() {
            for &(class, to) in nfa.transitions(state) {
                assert_eq!(class, leaves[to - 1], "state {to} is entered on leaf {}", to - 1);
                entered[to - 1] = true;
            }
        }
        assert_eq!(entered, [true; 4], "every leaf is reachable");
        let accepting: Vec<usize> = (0..5).filter(|&s| nfa.is_accept(s)).collect();
        assert_eq!(accepting, [4], "only the last leaf, `d`, ends a match");
        assert!(Regex::parse("a*").expect("parses").compile().is_accept(0), "nullable start");
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// A strategy for (pattern, reference matcher) pairs built
    /// structurally, so we can check the compiled NFA against a
    /// directly-interpreted oracle.
    #[derive(Debug, Clone)]
    enum Node {
        Lit(u8),
        Any,
        Concat(Box<Node>, Box<Node>),
        Alt(Box<Node>, Box<Node>),
        Star(Box<Node>),
    }

    impl Node {
        fn to_pattern(&self) -> String {
            match self {
                Node::Lit(b) => format!("{}", *b as char),
                Node::Any => ".".to_string(),
                Node::Concat(a, b) => format!("{}{}", a.to_pattern(), b.to_pattern()),
                Node::Alt(a, b) => format!("({}|{})", a.to_pattern(), b.to_pattern()),
                Node::Star(a) => format!("({})*", a.to_pattern()),
            }
        }

        /// Oracle: set of residual suffix positions after matching a
        /// prefix of `input[pos..]`.
        fn matches(&self, input: &[u8], pos: usize) -> Vec<usize> {
            match self {
                Node::Lit(b) => {
                    if input.get(pos) == Some(b) {
                        vec![pos + 1]
                    } else {
                        vec![]
                    }
                }
                Node::Any => {
                    if pos < input.len() {
                        vec![pos + 1]
                    } else {
                        vec![]
                    }
                }
                Node::Concat(a, b) => {
                    let mut out = Vec::new();
                    for mid in a.matches(input, pos) {
                        out.extend(b.matches(input, mid));
                    }
                    out.sort_unstable();
                    out.dedup();
                    out
                }
                Node::Alt(a, b) => {
                    let mut out = a.matches(input, pos);
                    out.extend(b.matches(input, pos));
                    out.sort_unstable();
                    out.dedup();
                    out
                }
                Node::Star(a) => {
                    let mut out = vec![pos];
                    let mut frontier = vec![pos];
                    while let Some(p) = frontier.pop() {
                        for q in a.matches(input, p) {
                            if q > p && !out.contains(&q) {
                                out.push(q);
                                frontier.push(q);
                            }
                        }
                    }
                    out.sort_unstable();
                    out
                }
            }
        }
    }

    fn node_strategy() -> impl Strategy<Value = Node> {
        let leaf = prop_oneof![(b'a'..=b'c').prop_map(Node::Lit), Just(Node::Any),];
        leaf.prop_recursive(3, 24, 2, |inner| {
            prop_oneof![
                (inner.clone(), inner.clone())
                    .prop_map(|(a, b)| Node::Concat(Box::new(a), Box::new(b))),
                (inner.clone(), inner.clone())
                    .prop_map(|(a, b)| Node::Alt(Box::new(a), Box::new(b))),
                inner.prop_map(|a| Node::Star(Box::new(a))),
            ]
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]
        /// The compiled NFA agrees with a structural oracle on random
        /// patterns and inputs.
        #[test]
        fn nfa_matches_structural_oracle(
            node in node_strategy(),
            input in proptest::collection::vec(b'a'..=b'd', 0..12),
        ) {
            let pattern = node.to_pattern();
            let nfa = Regex::parse(&pattern).expect("generated pattern parses").compile();
            let expected = node.matches(&input, 0).contains(&input.len());
            prop_assert_eq!(nfa.accepts(&input), expected, "pattern {}", pattern);
        }
    }
}
