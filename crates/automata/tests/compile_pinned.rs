//! Golden pin of the regex compiler's output.
//!
//! Every entry of a fixed corpus (40 seeded synthetic rule sets plus
//! edge patterns) is compiled with [`PatternSet::compile`], and two
//! canonical encodings are hashed with FNV-1a:
//!
//! * the union [`Nfa`](memcim_automata::Nfa): state count, sorted
//!   starts, accept flags, and each state's transitions sorted by target
//!   with their class bits;
//! * [`PatternSet::to_homogeneous`]: the [`ApMatrices`] (`V`, `R`, both
//!   start vectors, accept vector, ε acceptance), every state's `origin`,
//!   and the accept-state → pattern owner map sorted by state.
//!
//! The encodings ignore transition order within a state, which no
//! consumer depends on; everything else — state ids, classes, start
//! kinds, accept flags, attribution — is pinned bit for bit.

use memcim_automata::{ApMatrices, PatternSet, SymbolClass};
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Patterns at the edges of the construction: nullable patterns,
/// nested stars, zero repeats and an empty class.
const EDGE_PATTERNS: &[&str] = &[
    "",
    "a*",
    "a{0}",
    "(|a)(b|)*",
    "[^\\x00-\\xff]",
    "x[^\\x00-\\xff]y",
    "(a*)*",
    "(a|b)*abb",
    "a(b|c)*d",
    "a+b?c{2,3}",
    ".*",
    "((a|)|b*)+c",
];

/// (entry, FNV-1a of the NFA encoding, FNV-1a of the homogeneous
/// encoding). Entries `0..40` are `synthetic_rules(16)` seeded with
/// their index; `edge:N` is `EDGE_PATTERNS[N]` alone; `edges` is the
/// whole edge list as one set.
const PINNED: &[(&str, u64, u64)] = &[
    ("0", 0x14eeb17778c27ef4, 0x744dc8754eb3df14),
    ("1", 0x5105cdc4f2d50fcc, 0x42bce100721fb427),
    ("2", 0xee9422a47eb042c1, 0xca5eba9f678659c8),
    ("3", 0xef9f54cc49707019, 0xdcc9bd6a64cd194d),
    ("4", 0x3954341562577e87, 0x800d495afdaafcd0),
    ("5", 0x06fcb1c2d47eb712, 0x2092f58945ece935),
    ("6", 0x66310be71d4367fc, 0xa6603babb43db6d7),
    ("7", 0xd248e4ca7bc572b5, 0x04793839e6736ae5),
    ("8", 0x21a3b54356c6f4c2, 0x7c71ca29bc65016a),
    ("9", 0xc88e58d62d5de438, 0x192ef6c30c679454),
    ("10", 0x62b358a7e964dee9, 0x5cd6cc0d53f3fecb),
    ("11", 0x91e602d00825108e, 0xb18ef22deb46dee9),
    ("12", 0x0df01d1132a1d87d, 0x2754066f19f8458f),
    ("13", 0xbb3363735ec9c42f, 0x21ab8747f1495395),
    ("14", 0xb202a81f7b2dd74c, 0x51d18b30b8512d5b),
    ("15", 0x307beefd79e1fedd, 0x7880a3a8b11ba31f),
    ("16", 0xecfdb6fb5edf4daa, 0x0310b669b743bb43),
    ("17", 0x6a31ad4f9ee72b15, 0x4444f038221a4131),
    ("18", 0xb12898a9fc1918c1, 0x550163cfbb5c3798),
    ("19", 0xcc8518a691e7c130, 0xa485d3ad4aaa221b),
    ("20", 0x775dc568d9fe0355, 0x5b2813fa2cf2684c),
    ("21", 0xb13232d80e2e7df3, 0xe8a04ba523a8e96b),
    ("22", 0x4c9d040368606005, 0xd1cd4310f29c99a3),
    ("23", 0xe9068c5aecbce36d, 0x697cd125321162f1),
    ("24", 0x664426db12231ce4, 0x09c36153af80b6d8),
    ("25", 0x9ce9e755f41110e3, 0x451a6cfe0fe4f6d0),
    ("26", 0x6430fea030066fba, 0xc4c5824f1d00d6f9),
    ("27", 0x6bcea2bde959618e, 0xe8336662bbae24d8),
    ("28", 0x16ec87d774abbb48, 0x499676cecfeec760),
    ("29", 0xea3372a23ef2c8c6, 0x81de0918f7883fcc),
    ("30", 0xf16a84778921e1b1, 0xb5b4771c989717c0),
    ("31", 0x5bf7dc67907053e2, 0x362ea04a92cb7c97),
    ("32", 0x4aaea007cd6bfeea, 0x2e07bc0c7334a850),
    ("33", 0x60ee3e65b5958d39, 0x96af401360fd23a1),
    ("34", 0xb2f222d9dccbc498, 0x977e9bfb0765f278),
    ("35", 0xdc4394e11d2314e3, 0x0b2fef66523a8495),
    ("36", 0x261f7eb314c5fb48, 0x983c49407658bfb2),
    ("37", 0x32b55c80dea3f047, 0xeb89039fcd089cc2),
    ("38", 0x4403ebe5b9b18120, 0x3dd66199060dd016),
    ("39", 0xc11126ac5df1e3b3, 0x4042c9a487b31455),
    ("edge:0", 0x4563beaa210e18ec, 0xbbd65ff5fd4b5dd1),
    ("edge:1", 0xeacec464636c8f10, 0x1977a75490c8f6ba),
    ("edge:2", 0x4563beaa210e18ec, 0xbbd65ff5fd4b5dd1),
    ("edge:3", 0x12fbc43ebd1b3fe9, 0x9becba10e7848f0a),
    ("edge:4", 0xc81a9bcd0965f429, 0x277328ea99f93a0d),
    ("edge:5", 0xd6044a81439dec39, 0xbbfbe8bcaa7b4ae6),
    ("edge:6", 0xeacec464636c8f10, 0x1977a75490c8f6ba),
    ("edge:7", 0xf44e1256c7820af3, 0xb1ac38dec5232295),
    ("edge:8", 0xc06d1c5004bd8518, 0x612e069db2f1dd6c),
    ("edge:9", 0xcd88c2d3b5ccfa97, 0x1b0407d3af9da73e),
    ("edge:10", 0x3181671b2692a36c, 0x4b3099cf3c9711ad),
    ("edge:11", 0xdcdaddfb0a97e552, 0x900ee850a4e2c7cf),
    ("edges", 0x16ea93507084b164, 0x2c3c1647990e7f63),
];

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    fn bool(&mut self, v: bool) {
        self.bytes(&[u8::from(v)]);
    }
}

fn class_words(class: &SymbolClass) -> [u64; 4] {
    let mut words = [0u64; 4];
    for b in class.iter() {
        words[usize::from(b) / 64] |= 1 << (b % 64);
    }
    words
}

fn nfa_hash(set: &PatternSet) -> u64 {
    let nfa = set.nfa();
    let mut h = Fnv::new();
    h.usize(nfa.state_count());
    let mut starts = nfa.starts().to_vec();
    starts.sort_unstable();
    h.usize(starts.len());
    starts.iter().for_each(|&s| h.usize(s));
    for state in 0..nfa.state_count() {
        h.bool(nfa.is_accept(state));
        let mut trans: Vec<(usize, [u64; 4])> =
            nfa.transitions(state).map(|(class, to)| (*to, class_words(class))).collect();
        trans.sort_unstable();
        h.usize(trans.len());
        for (to, words) in trans {
            h.usize(to);
            words.iter().for_each(|&w| h.u64(w));
        }
    }
    h.0
}

fn homogeneous_hash(set: &PatternSet) -> u64 {
    let (homog, owner) = set.to_homogeneous();
    let m: ApMatrices = homog.to_matrices();
    let mut h = Fnv::new();
    h.usize(m.state_count());
    for matrix in [&m.v, &m.r] {
        h.usize(matrix.rows());
        h.usize(matrix.cols());
        for row in 0..matrix.rows() {
            matrix.row(row).as_words().iter().for_each(|&w| h.u64(w));
        }
    }
    for vector in [&m.start_of_input, &m.all_input, &m.accept] {
        h.usize(vector.len());
        vector.as_words().iter().for_each(|&w| h.u64(w));
    }
    h.bool(m.accepts_empty);
    for state in 0..homog.state_count() {
        h.usize(homog.origin(state));
    }
    let mut owner: Vec<(usize, usize)> = owner.into_iter().collect();
    owner.sort_unstable();
    h.usize(owner.len());
    for (state, pattern) in owner {
        h.usize(state);
        h.usize(pattern);
    }
    h.0
}

fn corpus() -> Vec<(String, Vec<String>)> {
    let mut out: Vec<(String, Vec<String>)> = (0..40u64)
        .map(|seed| {
            let mut rng = SmallRng::seed_from_u64(seed);
            (seed.to_string(), memcim_automata::rules::synthetic_rules(&mut rng, 16))
        })
        .collect();
    for (i, p) in EDGE_PATTERNS.iter().enumerate() {
        out.push((format!("edge:{i}"), vec![(*p).to_string()]));
    }
    out.push(("edges".to_string(), EDGE_PATTERNS.iter().map(|p| (*p).to_string()).collect()));
    out
}

#[test]
fn compiled_automata_match_their_pins() {
    let actual: Vec<(String, u64, u64)> = corpus()
        .into_iter()
        .map(|(name, texts)| {
            let refs: Vec<&str> = texts.iter().map(String::as_str).collect();
            let set = PatternSet::compile(&refs).expect("corpus compiles");
            (name, nfa_hash(&set), homogeneous_hash(&set))
        })
        .collect();
    let table: String = actual
        .iter()
        .map(|(name, n, h)| format!("    (\"{name}\", 0x{n:016x}, 0x{h:016x}),\n"))
        .collect();
    assert_eq!(actual.len(), PINNED.len(), "corpus size changed; actual table:\n{table}");
    for ((name, n, h), &(pin_name, pin_n, pin_h)) in actual.iter().zip(PINNED) {
        assert_eq!(name, pin_name, "corpus order changed; actual table:\n{table}");
        assert_eq!(*n, pin_n, "{name}: NFA encoding changed; actual table:\n{table}");
        assert_eq!(*h, pin_h, "{name}: homogeneous encoding changed; actual table:\n{table}");
    }
}
