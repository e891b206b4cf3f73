//! Named dimension spaces.
//!
//! A [`Space`] fixes the interpretation of the coefficient vectors used by
//! [`LinExpr`](crate::LinExpr) and [`Constraint`](crate::Constraint): the
//! `k`-th coefficient multiplies the `k`-th dimension of the space.
//!
//! Dimensions carry a [`DimKind`] so that client analyses can distinguish
//! loop-index variables, symbolic constants (parameters), processor indices,
//! array subscripts, and auxiliary existential variables introduced for
//! modulo/divisibility conditions (paper §4.4.2).
//!
//! A space's dimensions are shared, not owned: they sit behind one
//! reference count, so cloning a `Space` (which every polyhedron copy does)
//! is a count bump, and two clones compare equal by pointer. The first
//! [`Space::add_dim`], [`Space::add_aux`] or [`Space::product`] on a shared
//! space copies the dimensions (copy on write); the other holders keep
//! seeing the old list.

use std::fmt;
use std::sync::Arc;

/// The role a dimension plays in a polyhedron.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum DimKind {
    /// A loop-index variable (iteration-space dimension).
    Index,
    /// A symbolic constant (`N`, `T`, ... — unchanged within the region).
    Param,
    /// A (virtual) processor dimension.
    Proc,
    /// An array-subscript dimension.
    Array,
    /// An auxiliary existential variable (introduced for `mod`/floor terms).
    Aux,
}

impl fmt::Display for DimKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DimKind::Index => "index",
            DimKind::Param => "param",
            DimKind::Proc => "proc",
            DimKind::Array => "array",
            DimKind::Aux => "aux",
        };
        f.write_str(s)
    }
}

/// One named dimension of a [`Space`].
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct Dim {
    name: String,
    kind: DimKind,
}

impl Dim {
    /// Creates a dimension with the given name and kind.
    pub fn new(name: impl Into<String>, kind: DimKind) -> Self {
        Dim {
            name: name.into(),
            kind,
        }
    }

    /// The dimension's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The dimension's kind.
    pub fn kind(&self) -> DimKind {
        self.kind
    }
}

/// An ordered list of named dimensions.
///
/// # Examples
///
/// ```
/// use dmc_polyhedra::{Space, DimKind};
///
/// let mut s = Space::new();
/// let t = s.add_dim("t", DimKind::Index);
/// let n = s.add_dim("N", DimKind::Param);
/// assert_eq!(s.len(), 2);
/// assert_eq!(s.dim(t).name(), "t");
/// assert_eq!(s.index_of("N"), Some(n));
/// ```
#[derive(Clone, Debug, Eq, Default)]
pub struct Space {
    dims: Arc<Vec<Dim>>,
}

/// Clones of one space share their dimensions, so equality is first a
/// pointer test.
impl PartialEq for Space {
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.dims, &other.dims) || self.dims == other.dims
    }
}

impl Space {
    /// Creates an empty space.
    pub fn new() -> Self {
        Space::default()
    }

    /// A space over `dims`, whose names the caller has already checked to
    /// be distinct.
    pub(crate) fn from_distinct(dims: Vec<Dim>) -> Self {
        Space {
            dims: Arc::new(dims),
        }
    }

    /// Creates a space from a list of `(name, kind)` pairs.
    ///
    /// # Panics
    ///
    /// Panics if two dimensions share a name.
    pub fn from_dims<I, S>(dims: I) -> Self
    where
        I: IntoIterator<Item = (S, DimKind)>,
        S: Into<String>,
    {
        let mut space = Space::new();
        for (name, kind) in dims {
            space.add_dim(name, kind);
        }
        space
    }

    /// Appends a dimension and returns its position.
    ///
    /// # Panics
    ///
    /// Panics if a dimension with the same name already exists.
    pub fn add_dim(&mut self, name: impl Into<String>, kind: DimKind) -> usize {
        let name = name.into();
        assert!(
            self.index_of(&name).is_none(),
            "duplicate dimension name {name:?}"
        );
        let dims = Arc::make_mut(&mut self.dims);
        dims.push(Dim::new(name, kind));
        dims.len() - 1
    }

    /// Appends an auxiliary dimension with a fresh generated name and
    /// returns its position.
    pub fn add_aux(&mut self) -> usize {
        let mut k = self.dims.len();
        loop {
            let name = format!("$q{k}");
            if self.index_of(&name).is_none() {
                return self.add_dim(name, DimKind::Aux);
            }
            k += 1;
        }
    }

    /// Number of dimensions.
    pub fn len(&self) -> usize {
        self.dims.len()
    }

    /// Whether the space has no dimensions.
    pub fn is_empty(&self) -> bool {
        self.dims.is_empty()
    }

    /// The dimension at position `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn dim(&self, i: usize) -> &Dim {
        &self.dims[i]
    }

    /// Iterator over all dimensions in order.
    pub fn iter(&self) -> impl Iterator<Item = &Dim> {
        self.dims.iter()
    }

    /// Position of the dimension named `name`, if present.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.dims.iter().position(|d| d.name() == name)
    }

    /// Builds a new space that appends `other`'s dimensions after `self`'s.
    ///
    /// # Panics
    ///
    /// Panics if the spaces share a dimension name.
    pub fn product(&self, other: &Space) -> Space {
        let mut s = self.clone();
        for d in other.iter() {
            s.add_dim(d.name().to_owned(), d.kind());
        }
        s
    }

    /// The dimensions from position `from` on, as a space of their own:
    /// what [`Polyhedron::extend_space`](crate::Polyhedron::extend_space)
    /// appends to a system over the first `from` dimensions to reach this
    /// space.
    ///
    /// # Panics
    ///
    /// Panics if `from > self.len()`.
    pub fn tail(&self, from: usize) -> Space {
        Space::from_distinct(self.dims[from..].to_vec())
    }
}

impl fmt::Display for Space {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, d) in self.dims.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{}", d.name())?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_and_lookup() {
        let s = Space::from_dims([("i", DimKind::Index), ("N", DimKind::Param)]);
        assert_eq!(s.len(), 2);
        assert_eq!(s.index_of("i"), Some(0));
        assert_eq!(s.index_of("N"), Some(1));
        assert_eq!(s.index_of("j"), None);
        assert_eq!(s.dim(1).kind(), DimKind::Param);
    }

    #[test]
    #[should_panic(expected = "duplicate")]
    fn duplicate_name_panics() {
        let mut s = Space::new();
        s.add_dim("i", DimKind::Index);
        s.add_dim("i", DimKind::Param);
    }

    #[test]
    fn product_appends() {
        let a = Space::from_dims([("i", DimKind::Index)]);
        let b = Space::from_dims([("p", DimKind::Proc)]);
        let c = a.product(&b);
        assert_eq!(c.len(), 2);
        assert_eq!(c.index_of("p"), Some(1));
        // `tail` undoes it.
        assert_eq!(c.tail(1), b);
        assert!(c.tail(2).is_empty());
    }

    #[test]
    fn clones_share_until_written() {
        let a = Space::from_dims([("i", DimKind::Index)]);
        let mut b = a.clone();
        assert!(Arc::ptr_eq(&a.dims, &b.dims));
        assert_eq!(a, b);
        b.add_dim("N", DimKind::Param);
        assert_eq!((a.len(), b.len()), (1, 2), "the write copied");
        assert_eq!(a.index_of("N"), None);
        assert_ne!(a, b);
        // Equal lists compare equal without sharing.
        assert_eq!(
            b,
            Space::from_dims([("i", DimKind::Index), ("N", DimKind::Param)])
        );
    }

    #[test]
    fn aux_names_are_fresh() {
        let mut s = Space::from_dims([("i", DimKind::Index)]);
        let a = s.add_aux();
        let b = s.add_aux();
        assert_ne!(s.dim(a).name(), s.dim(b).name());
        assert_eq!(s.dim(a).kind(), DimKind::Aux);
    }

    #[test]
    fn display_is_compact() {
        let s = Space::from_dims([("i", DimKind::Index), ("N", DimKind::Param)]);
        assert_eq!(s.to_string(), "[i, N]");
    }
}
