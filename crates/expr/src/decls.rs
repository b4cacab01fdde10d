//! Variable declarations and value stores.

use crate::EvalError;
use std::fmt;

/// Identifier of a declared variable (scalar or array) in a [`Decls`]
/// table. Carries the variable's offset into the flattened [`Store`] so
/// that scalar reads need no table lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VarId {
    pub(crate) idx: u32,
    pub(crate) offset: u32,
}

impl VarId {
    /// The position of this variable in its declaration table.
    #[must_use]
    pub fn index(self) -> usize {
        self.idx as usize
    }
}

/// Metadata for one declared variable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VarInfo {
    /// Human-readable name (for diagnostics and traces).
    pub name: String,
    /// Inclusive lower bound of every element.
    pub lo: i64,
    /// Inclusive upper bound of every element.
    pub hi: i64,
    /// Number of elements: `1` for scalars, the array length otherwise.
    pub len: usize,
    /// Whether the variable was declared as an array.
    pub is_array: bool,
    /// Offset of the first element in the flattened [`Store`].
    offset: usize,
}

impl VarInfo {
    /// Offset of the first element in the flattened store.
    #[must_use]
    pub fn offset(&self) -> usize {
        self.offset
    }
}

/// A declaration table: the static part of a model's data state.
///
/// Variables are bounded integers (`int[lo, hi]` in UPPAAL notation) or
/// fixed-length arrays of bounded integers. All variables start at their
/// lower bound clamped to `0` if `0` is in range, matching UPPAAL's
/// default initialization to `0`; use [`Decls::int_init`] for other
/// initial values.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Decls {
    vars: Vec<VarInfo>,
    inits: Vec<i64>,
}

impl Decls {
    /// Creates an empty declaration table.
    #[must_use]
    pub fn new() -> Self {
        Decls::default()
    }

    /// Declares a scalar bounded integer `name : int[lo, hi]`, initialized
    /// to `0` if in range, otherwise to `lo`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    pub fn int(&mut self, name: &str, lo: i64, hi: i64) -> VarId {
        let init = if lo <= 0 && 0 <= hi { 0 } else { lo };
        self.int_init(name, lo, hi, init)
    }

    /// Declares a scalar bounded integer with an explicit initial value.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi` or `init` is out of range.
    pub fn int_init(&mut self, name: &str, lo: i64, hi: i64, init: i64) -> VarId {
        assert!(lo <= hi, "empty range for {name}");
        assert!(
            lo <= init && init <= hi,
            "initial value of {name} out of range"
        );
        let offset = self.inits.len();
        self.vars.push(VarInfo {
            name: name.to_owned(),
            lo,
            hi,
            len: 1,
            is_array: false,
            offset,
        });
        self.inits.push(init);
        VarId {
            idx: (self.vars.len() - 1) as u32,
            offset: offset as u32,
        }
    }

    /// Declares an array `name : int[lo, hi][len]` with all elements
    /// initialized to `0` if in range, otherwise to `lo`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi` or `len == 0`.
    pub fn array(&mut self, name: &str, len: usize, lo: i64, hi: i64) -> VarId {
        assert!(lo <= hi, "empty range for {name}");
        assert!(len > 0, "zero-length array {name}");
        let init = if lo <= 0 && 0 <= hi { 0 } else { lo };
        let offset = self.inits.len();
        self.vars.push(VarInfo {
            name: name.to_owned(),
            lo,
            hi,
            len,
            is_array: true,
            offset,
        });
        self.inits.extend(std::iter::repeat_n(init, len));
        VarId {
            idx: (self.vars.len() - 1) as u32,
            offset: offset as u32,
        }
    }

    /// Metadata for a variable.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this table.
    #[must_use]
    pub fn info(&self, id: VarId) -> &VarInfo {
        &self.vars[id.idx as usize]
    }

    /// All declared variables, in declaration order.
    #[must_use]
    pub fn vars(&self) -> &[VarInfo] {
        &self.vars
    }

    /// Number of declared variables.
    #[must_use]
    pub fn len(&self) -> usize {
        self.vars.len()
    }

    /// The [`VarId`] of the `i`-th declared variable (declaration
    /// order, as in [`Decls::vars`]).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[must_use]
    pub fn id_at(&self, i: usize) -> VarId {
        VarId {
            idx: u32::try_from(i).expect("variable index fits u32"),
            offset: u32::try_from(self.vars[i].offset).expect("store offset fits u32"),
        }
    }

    /// Iterates the ids of all declared variables in declaration order.
    pub fn ids(&self) -> impl Iterator<Item = VarId> + '_ {
        (0..self.vars.len()).map(|i| self.id_at(i))
    }

    /// Whether the table is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.vars.is_empty()
    }

    /// The store holding every variable's initial value.
    #[must_use]
    pub fn initial_store(&self) -> Store {
        Store {
            values: self.inits.clone(),
        }
    }

    /// Looks up a variable by name.
    #[must_use]
    pub fn lookup(&self, name: &str) -> Option<VarId> {
        self.vars
            .iter()
            .position(|v| v.name == name)
            .map(|i| VarId {
                idx: i as u32,
                offset: self.vars[i].offset as u32,
            })
    }
}

/// A snapshot of all variable values: the discrete data part of a model
/// state. Cheap to clone and hashable, so it can key passed/waiting lists.
/// The default store holds no values.
#[derive(Clone, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Store {
    values: Vec<i64>,
}

impl Store {
    /// Reads a scalar variable.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to the declaration table this store
    /// was created from. Reading an array variable returns its first
    /// element.
    #[must_use]
    pub fn get(&self, id: VarId) -> i64 {
        self.values[id.offset as usize]
    }

    /// Reads element `index` of an array variable (also works for scalars
    /// with `index == 0`).
    ///
    /// # Errors
    ///
    /// Returns [`EvalError::IndexOutOfBounds`] if the index is outside the
    /// array.
    pub fn get_index(&self, decls: &Decls, id: VarId, index: i64) -> Result<i64, EvalError> {
        let info = decls.info(id);
        if index < 0 || index as usize >= info.len {
            return Err(EvalError::IndexOutOfBounds {
                var: id,
                index,
                len: info.len,
            });
        }
        Ok(self.values[info.offset + index as usize])
    }

    /// Writes element `index` of a variable, checking both the index and
    /// the declared value range.
    ///
    /// # Errors
    ///
    /// Returns [`EvalError::IndexOutOfBounds`] or
    /// [`EvalError::RangeViolation`].
    pub fn set_index(
        &mut self,
        decls: &Decls,
        id: VarId,
        index: i64,
        value: i64,
    ) -> Result<(), EvalError> {
        let info = decls.info(id);
        if index < 0 || index as usize >= info.len {
            return Err(EvalError::IndexOutOfBounds {
                var: id,
                index,
                len: info.len,
            });
        }
        if value < info.lo || value > info.hi {
            return Err(EvalError::RangeViolation {
                var: id,
                value,
                lo: info.lo,
                hi: info.hi,
            });
        }
        self.values[info.offset + index as usize] = value;
        Ok(())
    }

    /// Raw flattened values (ordering follows declaration order).
    #[must_use]
    pub fn as_slice(&self) -> &[i64] {
        &self.values
    }

    /// Reconstructs a store from flattened values, the inverse of
    /// [`Store::as_slice`] — for deserializing spilled states. The
    /// caller is responsible for the values matching the declaration
    /// table they will be read against.
    #[must_use]
    pub fn from_values(values: Vec<i64>) -> Self {
        Store { values }
    }

    /// Overwrites every value with `values`, keeping the allocation: the
    /// in-place form of [`Store::from_values`], with the same caveat.
    pub fn set_values(&mut self, values: &[i64]) {
        self.values.clear();
        self.values.extend_from_slice(values);
    }
}

impl fmt::Debug for Store {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Store{:?}", self.values)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn declaration_and_initials() {
        let mut d = Decls::new();
        let a = d.int("a", -5, 5);
        let b = d.int_init("b", 1, 10, 7);
        let arr = d.array("arr", 3, 0, 100);
        let s = d.initial_store();
        assert_eq!(s.get(a), 0);
        assert_eq!(s.get_index(&d, b, 0).unwrap(), 7);
        assert_eq!(s.get_index(&d, arr, 2).unwrap(), 0);
        assert_eq!(d.lookup("arr"), Some(arr));
        assert_eq!(d.lookup("nope"), None);
    }

    #[test]
    fn range_checks() {
        let mut d = Decls::new();
        let a = d.int("a", 0, 3);
        let mut s = d.initial_store();
        assert!(s.set_index(&d, a, 0, 3).is_ok());
        let err = s.set_index(&d, a, 0, 4).unwrap_err();
        assert!(matches!(err, EvalError::RangeViolation { value: 4, .. }));
    }

    #[test]
    fn index_checks() {
        let mut d = Decls::new();
        let arr = d.array("arr", 2, 0, 9);
        let mut s = d.initial_store();
        assert!(s.set_index(&d, arr, 1, 9).is_ok());
        assert!(matches!(
            s.set_index(&d, arr, 2, 0),
            Err(EvalError::IndexOutOfBounds { index: 2, .. })
        ));
        assert!(matches!(
            s.get_index(&d, arr, -1),
            Err(EvalError::IndexOutOfBounds { index: -1, .. })
        ));
    }

    #[test]
    fn stores_hashable_and_comparable() {
        let mut d = Decls::new();
        let a = d.int("a", 0, 9);
        let s1 = d.initial_store();
        let mut s2 = d.initial_store();
        assert_eq!(s1, s2);
        s2.set_index(&d, a, 0, 1).unwrap();
        assert_ne!(s1, s2);
    }
}
