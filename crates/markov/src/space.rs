//! Hash-indexed state spaces.

use std::collections::HashMap;
use std::fmt;
use std::hash::Hash;

/// An indexed set of states discovered by closure of a transition
/// function (see [`crate::chain::ChainBuilder::explore`]).
///
/// States are stored in discovery (BFS) order; [`StateSpace::index_of`]
/// maps a state back to its dense index.
///
/// # Example
///
/// ```
/// use busnet_markov::space::StateSpace;
///
/// let mut space = StateSpace::new();
/// let a = space.intern("a");
/// let b = space.intern("b");
/// assert_eq!(space.intern("a"), a);
/// assert_eq!(space.len(), 2);
/// assert_eq!(space.index_of(&"b"), Some(b));
/// assert_eq!(space.state(a), &"a");
/// ```
#[derive(Clone, Debug, Default)]
pub struct StateSpace<S> {
    states: Vec<S>,
    index: HashMap<S, usize>,
}

impl<S: Clone + Eq + Hash> StateSpace<S> {
    /// Creates an empty state space.
    pub fn new() -> Self {
        StateSpace { states: Vec::new(), index: HashMap::new() }
    }

    /// Returns the dense index for `state`, inserting it if new.
    pub fn intern(&mut self, state: S) -> usize {
        if let Some(&i) = self.index.get(&state) {
            return i;
        }
        let i = self.states.len();
        self.states.push(state.clone());
        self.index.insert(state, i);
        i
    }

    /// Index of a previously interned state, if present.
    pub fn index_of(&self, state: &S) -> Option<usize> {
        self.index.get(state).copied()
    }

    /// The state stored at dense index `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn state(&self, i: usize) -> &S {
        &self.states[i]
    }

    /// Number of states.
    pub fn len(&self) -> usize {
        self.states.len()
    }

    /// Whether the space is empty.
    pub fn is_empty(&self) -> bool {
        self.states.is_empty()
    }

    /// Iterates over `(index, state)` pairs in discovery order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &S)> {
        self.states.iter().enumerate()
    }
}

impl<S: fmt::Display> fmt::Display for StateSpace<S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "state space ({} states):", self.states.len())?;
        for (i, s) in self.states.iter().enumerate() {
            writeln!(f, "  [{i}] {s}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent() {
        let mut sp = StateSpace::new();
        let a = sp.intern(vec![1u8, 2]);
        let b = sp.intern(vec![3u8]);
        assert_ne!(a, b);
        assert_eq!(sp.intern(vec![1, 2]), a);
        assert_eq!(sp.len(), 2);
    }

    #[test]
    fn iteration_order_is_discovery_order() {
        let mut sp = StateSpace::new();
        sp.intern("x");
        sp.intern("y");
        sp.intern("z");
        let order: Vec<&str> = sp.iter().map(|(_, s)| *s).collect();
        assert_eq!(order, vec!["x", "y", "z"]);
    }

    #[test]
    fn missing_state_is_none() {
        let mut sp = StateSpace::new();
        sp.intern(1u32);
        assert_eq!(sp.index_of(&2), None);
    }
}
