//! Named attribute arrays attached to datasets.
//!
//! A dataset (point cloud or grid) carries an [`AttributeSet`]: an ordered
//! map from attribute name to a typed array with one entry per point / cell.
//! This mirrors VTK's point-data arrays, which is all the original ETH needs
//! from the VTK data model.

use crate::array::Array;
use crate::error::{DataError, Result};
use crate::vec3::Vec3;
use serde::{Deserialize, Serialize};

/// One typed attribute array: owned, or a view of the payload it was
/// decoded from ([`Array`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Attribute {
    /// Per-element scalar (e.g. temperature, density).
    Scalar(Array<f32>),
    /// Per-element vector (e.g. velocity).
    Vector(Array<Vec3>),
    /// Per-element 64-bit id (e.g. HACC particle ids).
    Id(Array<u64>),
}

impl Attribute {
    /// Number of elements in the array.
    pub fn len(&self) -> usize {
        match self {
            Attribute::Scalar(v) => v.len(),
            Attribute::Vector(v) => v.len(),
            Attribute::Id(v) => v.len(),
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Short type tag used by the IO formats.
    pub fn type_tag(&self) -> &'static str {
        match self {
            Attribute::Scalar(_) => "scalar",
            Attribute::Vector(_) => "vector",
            Attribute::Id(_) => "id",
        }
    }

    /// Keep only the elements at `indices` (in order). Indices must be in
    /// range; this is enforced by the samplers that produce them.
    pub fn gather(&self, indices: &[usize]) -> Attribute {
        match self {
            Attribute::Scalar(v) => Attribute::Scalar(indices.iter().map(|&i| v[i]).collect()),
            Attribute::Vector(v) => Attribute::Vector(indices.iter().map(|&i| v[i]).collect()),
            Attribute::Id(v) => Attribute::Id(indices.iter().map(|&i| v[i]).collect()),
        }
    }

    /// Append all elements of `other` (must be the same variant). A view
    /// is copied into an owned array first ([`Array::make_mut`]).
    pub fn append(&mut self, other: &Attribute) -> Result<()> {
        match (self, other) {
            (Attribute::Scalar(a), Attribute::Scalar(b)) => a.make_mut().extend_from_slice(b),
            (Attribute::Vector(a), Attribute::Vector(b)) => a.make_mut().extend_from_slice(b),
            (Attribute::Id(a), Attribute::Id(b)) => a.make_mut().extend_from_slice(b),
            (me, other) => {
                return Err(DataError::InvalidArgument(format!(
                    "cannot append {} attribute to {} attribute",
                    other.type_tag(),
                    me.type_tag()
                )))
            }
        }
        Ok(())
    }

    /// View as scalars, if that is the variant.
    pub fn as_scalar(&self) -> Option<&[f32]> {
        match self {
            Attribute::Scalar(v) => Some(v),
            _ => None,
        }
    }

    pub fn as_id(&self) -> Option<&[u64]> {
        match self {
            Attribute::Id(v) => Some(v),
            _ => None,
        }
    }
}

/// Which of a block's attributes an operation carries. Geometry — a
/// cloud's positions, a grid's shape — is always carried; this names the
/// attributes beside it.
///
/// A visualization pipeline reads a block's geometry and the one field it
/// colours by, so that is what crosses the in-situ interface
/// ([`Fields::Only`]); files, spills and partitions keep every attribute
/// ([`Fields::All`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fields<'a> {
    /// Every attribute, in the set's order.
    All,
    /// The named attribute, if the block holds one; `None` is geometry
    /// alone.
    Only(Option<&'a str>),
}

impl Fields<'_> {
    /// Whether the attribute called `name` is carried.
    pub fn keeps(&self, name: &str) -> bool {
        match self {
            Fields::All => true,
            Fields::Only(kept) => *kept == Some(name),
        }
    }
}

/// Ordered collection of named attributes, all with the same length.
///
/// Insertion order is preserved so files written from an `AttributeSet`
/// are deterministic.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct AttributeSet {
    entries: Vec<(String, Attribute)>,
}

impl AttributeSet {
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of attributes (not elements).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Insert or replace an attribute, validating its length against
    /// `expected_len` (the owning container's element count).
    pub fn insert(&mut self, name: &str, attr: Attribute, expected_len: usize) -> Result<()> {
        if attr.len() != expected_len {
            return Err(DataError::ShapeMismatch {
                expected: expected_len,
                got: attr.len(),
                name: name.to_string(),
            });
        }
        if let Some(slot) = self.entries.iter_mut().find(|(n, _)| n == name) {
            slot.1 = attr;
        } else {
            self.entries.push((name.to_string(), attr));
        }
        Ok(())
    }

    pub fn get(&self, name: &str) -> Option<&Attribute> {
        self.entries.iter().find(|(n, _)| n == name).map(|(_, a)| a)
    }

    /// Like [`AttributeSet::get`] but returns a typed error for the caller
    /// to propagate.
    pub fn require(&self, name: &str) -> Result<&Attribute> {
        self.get(name)
            .ok_or_else(|| DataError::MissingAttribute(name.to_string()))
    }

    /// Scalar view of the named attribute, erroring if missing or mistyped.
    pub fn require_scalar(&self, name: &str) -> Result<&[f32]> {
        self.require(name)?.as_scalar().ok_or_else(|| {
            DataError::InvalidArgument(format!("attribute '{name}' is not a scalar"))
        })
    }

    pub fn remove(&mut self, name: &str) -> Option<Attribute> {
        let idx = self.entries.iter().position(|(n, _)| n == name)?;
        Some(self.entries.remove(idx).1)
    }

    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.entries.iter().map(|(n, _)| n.as_str())
    }

    pub fn iter(&self) -> impl Iterator<Item = (&str, &Attribute)> {
        self.entries.iter().map(|(n, a)| (n.as_str(), a))
    }

    /// The attributes `fields` carries, in the set's order.
    pub fn selected<'s>(&'s self, fields: Fields<'s>) -> impl Iterator<Item = (&'s str, &'s Attribute)> {
        self.iter().filter(move |(name, _)| fields.keeps(name))
    }

    /// The attributes `fields` carries, as a set of their own. An owned
    /// array is copied, a view shares its bytes ([`Array`]'s `Clone`).
    pub fn select(&self, fields: Fields) -> AttributeSet {
        AttributeSet {
            entries: self
                .selected(fields)
                .map(|(n, a)| (n.to_string(), a.clone()))
                .collect(),
        }
    }

    /// Produce a new set of the attributes `fields` carries, keeping only
    /// the elements at `indices` in each array.
    pub fn gather(&self, indices: &[usize], fields: Fields) -> AttributeSet {
        AttributeSet {
            entries: self
                .selected(fields)
                .map(|(n, a)| (n.to_string(), a.gather(indices)))
                .collect(),
        }
    }

    /// Append per-element data from another set. Attribute names must match
    /// exactly (same sets, same types); used when merging rank-local blocks.
    pub fn append(&mut self, other: &AttributeSet) -> Result<()> {
        if self.entries.len() != other.entries.len() {
            return Err(DataError::InvalidArgument(format!(
                "attribute sets differ: {} vs {} attributes",
                self.entries.len(),
                other.entries.len()
            )));
        }
        for (name, attr) in &mut self.entries {
            let theirs = other.require(name)?;
            attr.append(theirs)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_set() -> AttributeSet {
        let mut s = AttributeSet::new();
        s.insert("t", Attribute::Scalar(vec![1.0, 2.0, 3.0].into()), 3).unwrap();
        s.insert(
            "v",
            Attribute::Vector(vec![Vec3::ZERO, Vec3::ONE, Vec3::new(1.0, 0.0, 0.0)].into()),
            3,
        )
        .unwrap();
        s.insert("id", Attribute::Id(vec![10, 20, 30].into()), 3).unwrap();
        s
    }

    #[test]
    fn insert_validates_length() {
        let mut s = AttributeSet::new();
        let err = s.insert("t", Attribute::Scalar(vec![1.0].into()), 3).unwrap_err();
        assert!(matches!(err, DataError::ShapeMismatch { .. }));
    }

    #[test]
    fn insert_replaces_existing() {
        let mut s = sample_set();
        s.insert("t", Attribute::Scalar(vec![9.0, 9.0, 9.0].into()), 3).unwrap();
        assert_eq!(s.len(), 3);
        assert_eq!(s.require_scalar("t").unwrap(), &[9.0, 9.0, 9.0]);
    }

    #[test]
    fn gather_selects_in_order() {
        let s = sample_set();
        let g = s.gather(&[2, 0], Fields::All);
        assert_eq!(g.require_scalar("t").unwrap(), &[3.0, 1.0]);
        assert_eq!(g.get("id").unwrap().as_id().unwrap(), &[30, 10]);
        // a selection gathers only what it carries
        let t = s.gather(&[2, 0], Fields::Only(Some("t")));
        assert_eq!(t.names().collect::<Vec<_>>(), ["t"]);
        assert_eq!(t.require_scalar("t").unwrap(), &[3.0, 1.0]);
        assert!(s.gather(&[1], Fields::Only(None)).is_empty());
        assert!(s.gather(&[1], Fields::Only(Some("absent"))).is_empty());
    }

    #[test]
    fn a_selection_keeps_the_sets_order() {
        let s = sample_set();
        let names = |fields| s.selected(fields).map(|(n, _)| n).collect::<Vec<_>>();
        assert_eq!(names(Fields::All), ["t", "v", "id"]);
        assert_eq!(names(Fields::Only(Some("v"))), ["v"]);
        assert!(names(Fields::Only(None)).is_empty());
        assert_eq!(s.select(Fields::All), s);
        assert_eq!(s.select(Fields::Only(Some("id"))).get("id"), s.get("id"));
    }

    #[test]
    fn append_merges_matching_sets() {
        let mut a = sample_set();
        let b = sample_set();
        a.append(&b).unwrap();
        assert_eq!(a.get("t").unwrap().len(), 6);
        assert_eq!(a.get("id").unwrap().as_id().unwrap(), &[10, 20, 30, 10, 20, 30]);
    }

    #[test]
    fn append_rejects_type_mismatch() {
        let mut a = Attribute::Scalar(vec![1.0].into());
        let b = Attribute::Id(vec![1].into());
        assert!(a.append(&b).is_err());
    }

    #[test]
    fn require_missing_errors() {
        let s = sample_set();
        assert!(matches!(s.require("nope"), Err(DataError::MissingAttribute(_))));
        assert!(s.require_scalar("id").is_err());
    }

    #[test]
    fn names_preserve_insertion_order() {
        let s = sample_set();
        let names: Vec<_> = s.names().collect();
        assert_eq!(names, vec!["t", "v", "id"]);
    }

    #[test]
    fn remove_returns_attribute() {
        let mut s = sample_set();
        let a = s.remove("v").unwrap();
        assert_eq!(a.len(), 3);
        assert!(s.get("v").is_none());
        assert!(s.remove("v").is_none());
    }
}
