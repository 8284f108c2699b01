//! The multi-player collaborative Sudoku puzzle (§2 of the paper).
//!
//! The shared object is a 9×9 grid; the single shared operation is
//! `Update(r, c, v)` (1-based indices, values 1–9), which succeeds iff the
//! indices are in range, the cell is not a pre-populated *given*, and
//! placing `v` violates none of the three Sudoku constraints (row, column,
//! 3×3 sub-square). A `clear(r, c)` operation is provided as a natural
//! extension (erasing a tentative entry).
//!
//! Per the paper's UI (Figure 2), an issuing player paints the square
//! YELLOW optimistically and repaints on completion — GREEN on commit
//! success, RED on a conflict. `examples/sudoku.rs` reproduces exactly that
//! flow.

use guesstimate_core::codec::Args;
use guesstimate_core::{args, Footprint, GState, OpRegistry, RestoreError, Value};
use guesstimate_spec::{Assertion, CaseSpace, MethodContract, MethodSpec, SpecSuite};

/// The shared Sudoku board.
///
/// Cells hold 0 (empty) or 1–9; `fixed` marks the pre-populated givens,
/// which operations may never modify.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct Sudoku {
    grid: [[u8; 9]; 9],
    fixed: [[bool; 9]; 9],
}

impl Sudoku {
    /// An empty board.
    pub fn new() -> Self {
        Sudoku::default()
    }

    /// A board pre-populated with `givens` (1-based `(row, col, value)`).
    ///
    /// # Panics
    ///
    /// Panics if a given is out of range or violates the Sudoku
    /// constraints — puzzle construction is programmer input.
    pub fn with_givens(givens: &[(u8, u8, u8)]) -> Self {
        let mut s = Sudoku::new();
        for &(r, c, v) in givens {
            assert!(
                (1..=9).contains(&r) && (1..=9).contains(&c) && (1..=9).contains(&v),
                "given out of range: ({r},{c},{v})"
            );
            let (ri, ci) = (r as usize - 1, c as usize - 1);
            assert!(
                s.placement_ok(ri, ci, v),
                "given violates constraints: ({r},{c},{v})"
            );
            s.grid[ri][ci] = v;
            s.fixed[ri][ci] = true;
        }
        s
    }

    /// The value at 1-based `(r, c)`: 0 when empty.
    ///
    /// Returns `None` when out of range.
    pub fn cell(&self, r: u8, c: u8) -> Option<u8> {
        if (1..=9).contains(&r) && (1..=9).contains(&c) {
            Some(self.grid[r as usize - 1][c as usize - 1])
        } else {
            None
        }
    }

    /// True if 1-based `(r, c)` is a pre-populated given.
    pub fn is_given(&self, r: u8, c: u8) -> bool {
        (1..=9).contains(&r) && (1..=9).contains(&c) && self.fixed[r as usize - 1][c as usize - 1]
    }

    /// Number of empty cells.
    pub fn empty_count(&self) -> usize {
        self.grid.iter().flatten().filter(|&&v| v == 0).count()
    }

    /// True when every cell is filled (and, by the invariant, solved).
    pub fn is_complete(&self) -> bool {
        self.empty_count() == 0
    }

    /// True if the whole grid satisfies the three Sudoku constraints
    /// (ignoring empty cells) — the object invariant.
    pub fn valid(&self) -> bool {
        (0..27).all(|u| {
            let mut seen = [false; 10];
            unit_cells(u).iter().all(|&(r, c)| {
                let v = self.grid[r][c] as usize;
                if v == 0 {
                    true
                } else if seen[v] {
                    false
                } else {
                    seen[v] = true;
                    true
                }
            })
        })
    }

    /// The paper's `Check`: true if writing `v` at 0-based `(r, c)` keeps
    /// all constraints satisfied.
    fn placement_ok(&self, r: usize, c: usize, v: u8) -> bool {
        for i in 0..9 {
            if i != c && self.grid[r][i] == v {
                return false;
            }
            if i != r && self.grid[i][c] == v {
                return false;
            }
        }
        let (br, bc) = (r / 3 * 3, c / 3 * 3);
        for i in br..br + 3 {
            for j in bc..bc + 3 {
                if (i, j) != (r, c) && self.grid[i][j] == v {
                    return false;
                }
            }
        }
        true
    }

    /// The paper's `Update` (1-based): writes `v` at `(r, c)` if legal.
    pub fn update(&mut self, r: u8, c: u8, v: u8) -> bool {
        if !(1..=9).contains(&r) || !(1..=9).contains(&c) || !(1..=9).contains(&v) {
            return false;
        }
        let (ri, ci) = (r as usize - 1, c as usize - 1);
        if self.fixed[ri][ci] || !self.placement_ok(ri, ci, v) {
            return false;
        }
        self.grid[ri][ci] = v;
        true
    }

    /// Erases a non-given cell (1-based). Fails on range errors, givens and
    /// already-empty cells.
    pub fn clear(&mut self, r: u8, c: u8) -> bool {
        if !(1..=9).contains(&r) || !(1..=9).contains(&c) {
            return false;
        }
        let (ri, ci) = (r as usize - 1, c as usize - 1);
        if self.fixed[ri][ci] || self.grid[ri][ci] == 0 {
            return false;
        }
        self.grid[ri][ci] = 0;
        true
    }

    /// Writes a cell with **no** constraint checking (1-based).
    ///
    /// A testing hook: lets test suites build deliberately buggy operation
    /// variants (like the off-by-one the paper caught with Spec#) without
    /// access to private fields. Never registered as a shared operation.
    ///
    /// # Panics
    ///
    /// Panics if `r`, `c` or `v` is out of range.
    pub fn set_cell_unchecked(&mut self, r: u8, c: u8, v: u8) {
        assert!(
            (1..=9).contains(&r) && (1..=9).contains(&c) && v <= 9,
            "set_cell_unchecked out of range: ({r},{c},{v})"
        );
        self.grid[r as usize - 1][c as usize - 1] = v;
    }

    /// All currently legal moves `(r, c, v)` (1-based) — used by the
    /// workload generator to simulate players.
    pub fn candidate_moves(&self) -> Vec<(u8, u8, u8)> {
        let mut out = Vec::new();
        for r in 0..9 {
            for c in 0..9 {
                if self.grid[r][c] != 0 {
                    continue;
                }
                for v in 1..=9u8 {
                    if self.placement_ok(r, c, v) {
                        out.push((r as u8 + 1, c as u8 + 1, v));
                    }
                }
            }
        }
        out
    }
}

/// 0-based cells of constraint unit `u` (0–8 rows, 9–17 columns, 18–26 boxes).
fn unit_cells(u: usize) -> [(usize, usize); 9] {
    let mut cells = [(0usize, 0usize); 9];
    match u {
        0..=8 => {
            for (c, cell) in cells.iter_mut().enumerate() {
                *cell = (u, c);
            }
        }
        9..=17 => {
            for (r, cell) in cells.iter_mut().enumerate() {
                *cell = (r, u - 9);
            }
        }
        _ => {
            let b = u - 18;
            let (br, bc) = (b / 3 * 3, b % 3 * 3);
            for (i, cell) in cells.iter_mut().enumerate() {
                *cell = (br + i / 3, bc + i % 3);
            }
        }
    }
    cells
}

/// Human-readable name of constraint unit `u`.
fn unit_name(u: usize) -> String {
    match u {
        0..=8 => format!("row-{}", u + 1),
        9..=17 => format!("col-{}", u - 8),
        _ => format!("box-{}", u - 17),
    }
}

impl GState for Sudoku {
    const TYPE_NAME: &'static str = "Sudoku";

    fn snapshot(&self) -> Value {
        let grid: Vec<Value> = self
            .grid
            .iter()
            .flatten()
            .map(|&v| Value::from(i64::from(v)))
            .collect();
        let fixed: Vec<Value> = self
            .fixed
            .iter()
            .flatten()
            .map(|&b| Value::from(b))
            .collect();
        Value::map([("grid", Value::from(grid)), ("fixed", Value::from(fixed))])
    }

    fn restore(&mut self, v: &Value) -> Result<(), RestoreError> {
        let grid = v
            .field("grid")
            .and_then(Value::as_list)
            .ok_or_else(|| RestoreError::shape("map with 81-int grid"))?;
        let fixed = v
            .field("fixed")
            .and_then(Value::as_list)
            .ok_or_else(|| RestoreError::shape("map with 81-bool fixed"))?;
        if grid.len() != 81 || fixed.len() != 81 {
            return Err(RestoreError::shape("81-element grid and fixed lists"));
        }
        // Decode whole, then assign: a failed restore leaves `self` as it was.
        let mut decoded = Sudoku::default();
        for (i, gv) in grid.iter().enumerate() {
            decoded.grid[i / 9][i % 9] = gv
                .as_i64()
                .and_then(|n| u8::try_from(n).ok())
                .filter(|n| *n <= 9)
                .ok_or_else(|| RestoreError::shape("cell in 0..=9"))?;
        }
        for (i, fv) in fixed.iter().enumerate() {
            decoded.fixed[i / 9][i % 9] = fv
                .as_bool()
                .ok_or_else(|| RestoreError::shape("fixed cell bool"))?;
        }
        *self = decoded;
        Ok(())
    }
}

/// Typed constructors for the shared operations.
pub mod ops {
    use super::*;

    guesstimate_core::methods! {
        Sudoku;
        /// `Update(r, c, v)` (1-based, as in the paper).
        fn update(r: u8, c: u8, v: u8) => update_footprint(r, c, v);
        /// `clear(r, c)` (1-based).
        fn clear(r: u8, c: u8) => clear_footprint(r, c);
    }
}

/// Footprint of `update(r, c, v)`: writes the target cell; reads the
/// target's `fixed` flag and every cell of the target's row, column and 3×3
/// box (the constraint check). Out-of-range arguments touch no state at all.
fn update_footprint(r: u8, c: u8, v: u8) -> Footprint {
    if !(1..=9).contains(&r) || !(1..=9).contains(&c) || !(1..=9).contains(&v) {
        return Footprint::new();
    }
    let (ri, ci) = (r as usize - 1, c as usize - 1);
    let idx = ri * 9 + ci;
    let mut reads = vec![format!("fixed/{idx}")];
    for i in 0..9 {
        reads.push(format!("grid/{}", ri * 9 + i));
        reads.push(format!("grid/{}", i * 9 + ci));
    }
    let (br, bc) = (ri / 3 * 3, ci / 3 * 3);
    for i in br..br + 3 {
        for j in bc..bc + 3 {
            reads.push(format!("grid/{}", i * 9 + j));
        }
    }
    Footprint::new()
        .reads(reads)
        .writes([format!("grid/{idx}")])
}

/// Footprint of `clear(r, c)`: reads and writes only the target cell (plus
/// its `fixed` flag).
fn clear_footprint(r: u8, c: u8) -> Footprint {
    if !(1..=9).contains(&r) || !(1..=9).contains(&c) {
        return Footprint::new();
    }
    let idx = (r as usize - 1) * 9 + (c as usize - 1);
    Footprint::new()
        .reads([format!("grid/{idx}"), format!("fixed/{idx}")])
        .writes([format!("grid/{idx}")])
}

/// Registers the Sudoku type and operations (with declared effects).
pub fn register(registry: &mut OpRegistry) {
    ops::register_methods(registry);
}

/// Decodes the `grid` list of a snapshot.
fn snap_grid(v: &Value) -> Option<Vec<i64>> {
    let g = v.field("grid")?.as_list()?;
    g.iter().map(Value::as_i64).collect()
}

fn snapshot_valid(v: &Value) -> bool {
    let Some(grid) = snap_grid(v) else {
        return false;
    };
    (0..27).all(|u| {
        let mut seen = [false; 10];
        unit_cells(u).iter().all(|&(r, c)| {
            let n = grid[r * 9 + c];
            if n == 0 {
                true
            } else if !(1..=9).contains(&n) || seen[n as usize] {
                false
            } else {
                seen[n as usize] = true;
                true
            }
        })
    })
}

/// φ of both operations: the target cell now holds `value(args)`; every
/// other cell (and the givens mask) is unchanged.
fn cell_contract(value: fn(&[Value]) -> Option<i64>) -> MethodContract {
    MethodContract::new()
        .with_post(move |pre, post, a| {
            let (Some(gp), Some(gq)) = (snap_grid(pre), snap_grid(post)) else {
                return false;
            };
            let (Some((r, c)), Some(v)) = (<(i64, i64)>::decode(a), value(a)) else {
                return false;
            };
            if !nine(r) || !nine(c) {
                return false; // success with bad indices is itself a bug
            }
            let target = (r as usize - 1) * 9 + (c as usize - 1);
            gq[target] == v
                && gp
                    .iter()
                    .zip(gq.iter())
                    .enumerate()
                    .all(|(i, (a, b))| i == target || a == b)
                && pre.field("fixed") == post.field("fixed")
        })
        .with_invariant(snapshot_valid)
}

/// The `update` contract: the target cell now holds `v`.
fn update_contract() -> MethodContract {
    cell_contract(|a| <(i64, i64, i64)>::decode(a).map(|(.., v)| v))
}

/// The `clear` contract: the target cell is now 0.
fn clear_contract() -> MethodContract {
    cell_contract(|_| Some(0))
}

/// Whether a row, column or value argument is in 1..=9.
fn nine(n: i64) -> bool {
    (1..=9).contains(&n)
}

/// Builds the full Sudoku specification suite — the assertion population
/// the Boogie-analog verifier classifies (the paper reports 323 assertions
/// for its Spec# Sudoku: 271 statically verified, 52 runtime checks).
///
/// Per method we generate:
/// * the universal frame assertion and the contract's post/invariant;
/// * 3 (update) / 2 (clear) state-independent bounds guards;
/// * 27 per-unit no-duplicate assertions (row/col/box × 9);
/// * 81 per-cell frame assertions ("cell (i,j) is untouched unless it is
///   the operation's target").
pub fn spec_suite() -> SpecSuite {
    let mut update = MethodSpec::new("update", update_contract());
    let mut clear = MethodSpec::new("clear", clear_contract());

    // Argument spaces: all 1-based in-range combinations plus the boundary
    // probes 0 and 10 (small-scope abstraction of "any out-of-range value").
    let probe: Vec<i64> = (0..=10).collect();
    let mut upd_args = Vec::new();
    for &r in &probe {
        for &c in &probe {
            for &v in &probe {
                upd_args.push(args![r, c, v]);
            }
        }
    }
    update = update.with_args(upd_args, true);
    let mut clr_args = Vec::new();
    for &r in &probe {
        for &c in &probe {
            clr_args.push(args![r, c]);
        }
    }
    clear = clear.with_args(clr_args, true);

    // Bounds guards (state-independent).
    update.contract = update
        .contract
        .with_guard("guard-row-in-1..9", |a| <i64>::decode(a).is_some_and(nine))
        .with_guard("guard-col-in-1..9", |a| {
            <(i64, i64)>::decode(a).is_some_and(|(_, c)| nine(c))
        })
        .with_guard("guard-val-in-1..9", |a| {
            <(i64, i64, i64)>::decode(a).is_some_and(|(.., v)| nine(v))
        });
    clear.contract = clear
        .contract
        .with_guard("guard-row-in-1..9", |a| <i64>::decode(a).is_some_and(nine))
        .with_guard("guard-col-in-1..9", |a| {
            <(i64, i64)>::decode(a).is_some_and(|(_, c)| nine(c))
        });

    // Per-unit no-duplicate assertions (27 per method).
    for method in [&mut update, &mut clear] {
        for u in 0..27 {
            let name = format!("nodup-{}", unit_name(u));
            method.contract = std::mem::take(&mut method.contract).with_assertion(
                name,
                move |case: &guesstimate_spec::ExecCase| {
                    let Some(grid) = snap_grid(&case.post) else {
                        return false;
                    };
                    let mut seen = [false; 10];
                    unit_cells(u).iter().all(|&(r, c)| {
                        let n = grid[r * 9 + c];
                        if n == 0 {
                            true
                        } else if seen[n as usize] {
                            false
                        } else {
                            seen[n as usize] = true;
                            true
                        }
                    })
                },
            );
        }
    }

    // Per-cell frame assertions (81 per method). Which cell an operation
    // may touch is determined by its *arguments* alone (the implementation
    // never writes any other index), so — like Boogie discharging a
    // heap-independent path condition — these are marked state-independent
    // and verify from the complete argument enumeration.
    for method in [&mut update, &mut clear] {
        for cell in 0..81usize {
            let name = format!("frame-cell-{}-{}", cell / 9 + 1, cell % 9 + 1);
            let assertion = Assertion::new(name, move |case: &guesstimate_spec::ExecCase| {
                let (Some(gp), Some(gq)) = (snap_grid(&case.pre), snap_grid(&case.post)) else {
                    return false;
                };
                let target = match <(i64, i64)>::decode(&case.args) {
                    Some((r, c)) if nine(r) && nine(c) => {
                        Some((r as usize - 1) * 9 + (c as usize - 1))
                    }
                    _ => None,
                };
                Some(cell) == target || gp[cell] == gq[cell]
            })
            .assume_state_independent();
            method.contract = std::mem::take(&mut method.contract).with_assertion_obj(assertion);
        }
    }

    SpecSuite::new("Sudoku")
        .with_invariant("constraints-hold", snapshot_valid)
        .with_method(update)
        .with_method(clear)
}

/// A state space for the verifier: `n` boards reached by playing random
/// legal moves from the standard example puzzle (sampled, not exhaustive —
/// the real state space is astronomically large, which is exactly why the
/// state-dependent assertions classify as runtime checks).
pub fn sampled_states(n: usize, seed: u64) -> CaseSpace {
    // Deterministic xorshift so the spec table is reproducible without
    // pulling a RNG dependency into the apps crate.
    let mut x = seed | 1;
    let mut next = move |m: usize| {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        (x as usize) % m
    };
    let mut states = Vec::with_capacity(n);
    let mut board = example_puzzle();
    states.push(GState::snapshot(&board));
    while states.len() < n {
        let moves = board.candidate_moves();
        if moves.is_empty() {
            board = example_puzzle();
            continue;
        }
        let (r, c, v) = moves[next(moves.len())];
        board.update(r, c, v);
        states.push(GState::snapshot(&board));
    }
    CaseSpace::sampled(states, usize::MAX)
}

/// The paper's running example needs *an* instance; this is a standard
/// 30-given puzzle.
pub fn example_puzzle() -> Sudoku {
    Sudoku::with_givens(&[
        (1, 1, 5),
        (1, 2, 3),
        (1, 5, 7),
        (2, 1, 6),
        (2, 4, 1),
        (2, 5, 9),
        (2, 6, 5),
        (3, 2, 9),
        (3, 3, 8),
        (3, 8, 6),
        (4, 1, 8),
        (4, 5, 6),
        (4, 9, 3),
        (5, 1, 4),
        (5, 4, 8),
        (5, 6, 3),
        (5, 9, 1),
        (6, 1, 7),
        (6, 5, 2),
        (6, 9, 6),
        (7, 2, 6),
        (7, 7, 2),
        (7, 8, 8),
        (8, 4, 4),
        (8, 5, 1),
        (8, 6, 9),
        (8, 9, 5),
        (9, 5, 8),
        (9, 8, 7),
        (9, 9, 9),
    ])
}

/// The board's sampled state space: six boards played from the example
/// puzzle, and the puzzle itself.
fn states() -> Vec<Value> {
    let mut states = sampled_states(6, 0xA11CE).states;
    states.push(GState::snapshot(&example_puzzle()));
    states
}

/// This application's row of [`crate::all`].
pub const APP: crate::App = crate::App {
    type_name: Sudoku::TYPE_NAME,
    register,
    spec_suite,
    states,
};

#[cfg(test)]
mod tests {
    use super::*;
    use guesstimate_core::{execute, MachineId, ObjectId, ObjectStore};
    use guesstimate_spec::{verify_suite, ConformanceLog, Verdict};

    fn board_id() -> ObjectId {
        ObjectId::new(MachineId::new(0), 0)
    }

    fn store_with(s: Sudoku) -> (ObjectStore, OpRegistry) {
        let mut reg = OpRegistry::new();
        register(&mut reg);
        let mut store = ObjectStore::new();
        store.insert(board_id(), Box::new(s));
        (store, reg)
    }

    #[test]
    fn update_respects_row_col_box_constraints() {
        let mut s = Sudoku::new();
        assert!(s.update(1, 1, 5));
        assert!(!s.update(1, 9, 5), "row duplicate");
        assert!(!s.update(9, 1, 5), "column duplicate");
        assert!(!s.update(2, 2, 5), "box duplicate");
        assert!(s.update(2, 4, 5), "same value, different units");
        assert!(s.valid());
    }

    #[test]
    fn update_rejects_out_of_range() {
        let mut s = Sudoku::new();
        for bad in [
            (0, 1, 1),
            (10, 1, 1),
            (1, 0, 1),
            (1, 10, 1),
            (1, 1, 0),
            (1, 1, 10),
            (u8::MAX, 1, 1),
        ] {
            assert!(!s.update(bad.0, bad.1, bad.2), "{bad:?}");
        }
        assert_eq!(s.empty_count(), 81);
    }

    #[test]
    fn update_rejects_givens_and_allows_overwrite_of_guesses() {
        let mut s = Sudoku::with_givens(&[(1, 1, 5)]);
        assert!(s.is_given(1, 1));
        assert!(!s.update(1, 1, 6), "cannot overwrite a given");
        assert!(s.update(2, 2, 6));
        assert!(s.update(2, 2, 7), "tentative guesses can be overwritten");
        assert_eq!(s.cell(2, 2), Some(7));
    }

    #[test]
    fn clear_semantics() {
        let mut s = Sudoku::with_givens(&[(1, 1, 5)]);
        s.update(2, 2, 3);
        assert!(!s.clear(1, 1), "cannot clear a given");
        assert!(!s.clear(3, 3), "cannot clear an empty cell");
        assert!(!s.clear(0, 3), "bounds");
        assert!(s.clear(2, 2));
        assert_eq!(s.cell(2, 2), Some(0));
    }

    #[test]
    #[should_panic(expected = "violates constraints")]
    fn with_givens_rejects_invalid_puzzle() {
        Sudoku::with_givens(&[(1, 1, 5), (1, 2, 5)]);
    }

    #[test]
    fn snapshot_restore_roundtrip() {
        let s = example_puzzle();
        let mut t = Sudoku::new();
        GState::restore(&mut t, &GState::snapshot(&s)).unwrap();
        assert_eq!(s, t);
    }

    #[test]
    fn restore_rejects_malformed() {
        let mut s = Sudoku::new();
        assert!(GState::restore(&mut s, &Value::from(1)).is_err());
        assert!(GState::restore(
            &mut s,
            &Value::map([
                ("grid", Value::from(vec![Value::from(1)])),
                ("fixed", Value::from(vec![Value::from(true)]))
            ])
        )
        .is_err());
    }

    #[test]
    fn registered_ops_execute() {
        let (mut store, reg) = store_with(Sudoku::new());
        let ok = execute(&ops::update(board_id(), 1, 1, 5), &mut store, &reg).unwrap();
        assert!(ok.is_success());
        let dup = execute(&ops::update(board_id(), 1, 2, 5), &mut store, &reg).unwrap();
        assert!(!dup.is_success());
        let cl = execute(&ops::clear(board_id(), 1, 1), &mut store, &reg).unwrap();
        assert!(cl.is_success());
    }

    #[test]
    fn candidate_moves_shrink_as_board_fills() {
        let mut s = Sudoku::new();
        let m0 = s.candidate_moves().len();
        assert_eq!(m0, 81 * 9);
        s.update(1, 1, 5);
        assert!(s.candidate_moves().len() < m0);
        assert!(!s.is_complete());
    }

    #[test]
    fn example_puzzle_is_valid_with_30_givens() {
        let s = example_puzzle();
        assert!(s.valid());
        assert_eq!(81 - s.empty_count(), 30);
    }

    #[test]
    fn conformance_catches_off_by_one_bug() {
        // The paper: "the Sudoku grid row check had an off by one error in
        // array indexing which was caught with the aid of Spec#". Reproduce:
        // a buggy update that checks columns 2..9 only.
        let mut reg = OpRegistry::new();
        reg.register_type::<Sudoku>();
        let log = ConformanceLog::new();
        guesstimate_spec::register_checked::<Sudoku>(
            &mut reg,
            "update",
            update_contract(),
            &log,
            |s, a| {
                let (Some(r), Some(c), Some(v)) = (a.i64(0), a.i64(1), a.i64(2)) else {
                    return false;
                };
                if !(1..=9).contains(&r) || !(1..=9).contains(&c) || !(1..=9).contains(&v) {
                    return false;
                }
                let (ri, ci, v8) = (r as usize - 1, c as usize - 1, v as u8);
                // BUG: starts the row scan at 1 instead of 0.
                let row_dup = (1..9).any(|i| i != ci && s.grid[ri][i] == v8);
                if row_dup {
                    return false;
                }
                s.grid[ri][ci] = v8;
                true
            },
        );
        let mut store = ObjectStore::new();
        store.insert(board_id(), Box::new(Sudoku::new()));
        // Put 5 at (1,1) then at (1,9): the buggy row check misses column 1.
        execute(&ops::update(board_id(), 1, 1, 5), &mut store, &reg).unwrap();
        execute(&ops::update(board_id(), 1, 9, 5), &mut store, &reg).unwrap();
        assert!(
            !log.is_empty(),
            "the invariant runtime check catches the off-by-one"
        );
    }

    #[test]
    fn spec_suite_counts() {
        let suite = spec_suite();
        // update: frame+post+inv + 3 guards + 27 nodup + 81 cells = 114
        // clear:  frame+post+inv + 2 guards + 27 nodup + 81 cells = 113
        assert_eq!(suite.assertion_count(), 227);
    }

    #[test]
    fn verifier_classifies_sudoku_suite() {
        let mut reg = OpRegistry::new();
        register(&mut reg);
        let suite = spec_suite();
        // Small sampled space to keep the test fast; the bench binary runs
        // the full table.
        let mut space = sampled_states(3, 42);
        space.max_cases = 1_500;
        let report = verify_suite(&reg, &suite, &space);
        assert_eq!(report.total(), 227);
        assert_eq!(report.refuted(), 0, "correct implementation");
        // `update`'s case budget is truncated (1331 args x 3 states), so
        // none of its assertions can be Verified; `clear` (121 args x 3)
        // fits, so its state-independent assertions (2 guards + 81
        // per-cell frames) verify.
        assert_eq!(report.verified(), 83);
        assert_eq!(report.runtime_checks(), 144);
    }

    #[test]
    fn verifier_verifies_guards_with_full_arg_space() {
        let mut reg = OpRegistry::new();
        register(&mut reg);
        let suite = spec_suite();
        let space = sampled_states(2, 7); // no case cap
        let report = verify_suite(&reg, &suite, &space);
        assert_eq!(report.refuted(), 0);
        // All state-independent assertions verify over the complete
        // argument enumeration: 3+2 bounds guards and 81+81 per-cell frame
        // assertions — the majority, as in the paper (271 of 323).
        assert_eq!(report.verified(), 167);
        assert_eq!(report.runtime_checks(), 60);
        for a in report
            .assertions
            .iter()
            .filter(|a| a.verdict == Verdict::Verified)
        {
            assert!(
                a.name.starts_with("guard-") || a.name.starts_with("frame-cell-"),
                "{}",
                a.name
            );
        }
    }
}
