//! Schedules and the entity name table.

use crate::ids::{EntityId, TxnId};
use crate::step::{Op, Step};
use crate::txn::TxnSpec;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Bidirectional mapping between entity names (as written in the DSL,
/// e.g. `"x"`, `"z3"`) and dense [`EntityId`]s.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct EntityTable {
    names: Vec<String>,
    #[serde(skip)]
    by_name: HashMap<String, EntityId>,
}

impl EntityTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns `name`, returning its id (existing or fresh).
    pub fn intern(&mut self, name: &str) -> EntityId {
        if let Some(&id) = self.by_name.get(name) {
            return id;
        }
        let id = EntityId(u32::try_from(self.names.len()).expect("too many entities"));
        self.names.push(name.to_string());
        self.by_name.insert(name.to_string(), id);
        id
    }

    /// Looks up an already-interned name.
    pub fn get(&self, name: &str) -> Option<EntityId> {
        self.by_name.get(name).copied()
    }

    /// The name of `id`; falls back to `e<n>` for ids never interned.
    pub fn name(&self, id: EntityId) -> String {
        self.names
            .get(id.index())
            .cloned()
            .unwrap_or_else(|| format!("e{}", id.0))
    }

    /// Number of interned names.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// True if no names have been interned.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }
}

/// A (prefix of a) schedule: a sequence of steps, possibly interleaved,
/// possibly with incomplete transactions — exactly the scheduler's input
/// stream `s` of §2.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct Schedule {
    steps: Vec<Step>,
    /// Names for pretty-printing; entities created programmatically get
    /// default `e<n>` names.
    pub entities: EntityTable,
}

impl Schedule {
    /// An empty schedule.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a schedule from raw steps (no name table).
    pub fn from_steps(steps: Vec<Step>) -> Self {
        Self {
            steps,
            entities: EntityTable::new(),
        }
    }

    /// The steps in arrival order.
    pub fn steps(&self) -> &[Step] {
        &self.steps
    }

    /// Appends a step.
    pub fn push(&mut self, step: Step) {
        self.steps.push(step);
    }

    /// Number of steps.
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// True if there are no steps.
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// Serial execution of `specs`, in the given order (no interleaving).
    pub fn serial(specs: &[TxnSpec]) -> Self {
        let mut s = Self::new();
        for spec in specs {
            for st in spec.steps() {
                s.push(st);
            }
        }
        s
    }

    /// Round-robin interleaving of `specs`: one step of each live
    /// transaction per round, in spec order.
    pub fn round_robin(specs: &[TxnSpec]) -> Self {
        let mut queues: Vec<std::collections::VecDeque<Step>> = specs
            .iter()
            .map(|sp| sp.steps().into_iter().collect())
            .collect();
        let mut s = Self::new();
        let mut progressed = true;
        while progressed {
            progressed = false;
            for q in &mut queues {
                if let Some(st) = q.pop_front() {
                    s.push(st);
                    progressed = true;
                }
            }
        }
        s
    }

    /// The transaction ids appearing in the schedule, in first-appearance
    /// order.
    pub fn txn_ids(&self) -> Vec<TxnId> {
        let mut seen = std::collections::HashSet::new();
        let mut out = Vec::new();
        for st in &self.steps {
            if seen.insert(st.txn) {
                out.push(st.txn);
            }
        }
        out
    }

    /// Distinct entities touched anywhere in the schedule.
    pub fn entity_ids(&self) -> Vec<EntityId> {
        let mut out: Vec<EntityId> = self
            .steps
            .iter()
            .flat_map(|st| st.op.accesses())
            .map(|(x, _)| x)
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Projection onto the transactions *not* in `aborted` — the paper's
    /// *accepted subschedule* (§2) when `aborted` is the set of
    /// transactions the scheduler rejected.
    pub fn accepted_subschedule<S: std::hash::BuildHasher>(
        &self,
        aborted: &std::collections::HashSet<TxnId, S>,
    ) -> Schedule {
        Schedule {
            steps: self
                .steps
                .iter()
                .filter(|st| !aborted.contains(&st.txn))
                .cloned()
                .collect(),
            entities: self.entities.clone(),
        }
    }

    /// Transactions that have completed within this schedule (performed
    /// their terminal step).
    pub fn completed_txns(&self) -> Vec<TxnId> {
        let mut out: Vec<TxnId> = self
            .steps
            .iter()
            .filter(|st| st.op.is_terminal())
            .map(|st| st.txn)
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Renders a step in DSL syntax using this schedule's name table.
    pub fn format_step(&self, step: &Step) -> String {
        let t = step.txn.0;
        match &step.op {
            Op::Begin => format!("b{t}"),
            Op::Read(x) => format!("r{t}({})", self.entities.name(*x)),
            Op::Write(x) => format!("sw{t}({})", self.entities.name(*x)),
            Op::WriteAll(xs) => {
                let names: Vec<String> = xs.iter().map(|&x| self.entities.name(x)).collect();
                format!("w{t}({})", names.join(","))
            }
            Op::Finish => format!("f{t}"),
        }
    }
}

impl std::fmt::Display for Schedule {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let parts: Vec<String> = self.steps.iter().map(|s| self.format_step(s)).collect();
        write!(f, "{}", parts.join(" "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn entity_table_interning() {
        let mut t = EntityTable::new();
        let x = t.intern("x");
        let y = t.intern("y");
        assert_ne!(x, y);
        assert_eq!(t.intern("x"), x, "idempotent");
        assert_eq!(t.get("y"), Some(y));
        assert_eq!(t.get("z"), None);
        assert_eq!(t.name(x), "x");
        assert_eq!(t.name(EntityId(99)), "e99", "fallback name");
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn serial_and_round_robin() {
        let a = TxnSpec::basic(1, [0], [0]);
        let b = TxnSpec::basic(2, [1], [1]);
        let serial = Schedule::serial(&[a.clone(), b.clone()]);
        assert_eq!(serial.len(), 6);
        assert_eq!(serial.steps()[0].txn, TxnId(1));
        assert_eq!(serial.steps()[3].txn, TxnId(2));

        let rr = Schedule::round_robin(&[a, b]);
        assert_eq!(rr.len(), 6);
        // begins first, alternating txns
        assert_eq!(rr.steps()[0].txn, TxnId(1));
        assert_eq!(rr.steps()[1].txn, TxnId(2));
        assert_eq!(rr.steps()[2].txn, TxnId(1));
    }

    #[test]
    fn txn_and_entity_enumeration() {
        let s = Schedule::serial(&[TxnSpec::basic(3, [5, 1], [2])]);
        assert_eq!(s.txn_ids(), vec![TxnId(3)]);
        assert_eq!(s.entity_ids(), vec![EntityId(1), EntityId(2), EntityId(5)]);
        assert_eq!(s.completed_txns(), vec![TxnId(3)]);
    }

    #[test]
    fn accepted_subschedule_filters_aborted() {
        let s = Schedule::round_robin(&[TxnSpec::basic(1, [0], [0]), TxnSpec::basic(2, [0], [0])]);
        let aborted: HashSet<TxnId> = [TxnId(2)].into_iter().collect();
        let acc = s.accepted_subschedule(&aborted);
        assert!(acc.steps().iter().all(|st| st.txn == TxnId(1)));
        assert_eq!(acc.len(), 3);
    }

    #[test]
    fn display_round_trips_shapes() {
        let mut s = Schedule::new();
        let x = s.entities.intern("x");
        let y = s.entities.intern("y");
        s.push(Step::begin(1));
        s.push(Step::new(TxnId(1), Op::Read(x)));
        s.push(Step::new(TxnId(1), Op::WriteAll(vec![x, y])));
        assert_eq!(s.to_string(), "b1 r1(x) w1(x,y)");
    }
}
