//! Schema definitions for hidden databases.
//!
//! A hidden database table has `n` categorical attributes `A_1 … A_n`.
//! Boolean attributes are categorical attributes with domain size 2.
//! Numerical attributes are assumed to be discretised into buckets (paper
//! §2.1); an attribute may carry an optional *numeric interpretation*
//! mapping each categorical value to an `f64` so that SUM/AVG aggregates
//! over it are well defined (e.g. a PRICE attribute whose values are price
//! buckets).

use std::fmt;

use crate::error::{HdbError, Result};

/// Identifier of an attribute within a [`Schema`] (its position).
pub type AttrId = usize;

/// Index of a value within an attribute's domain (`0..fanout`).
pub type ValueId = u16;

/// A single categorical attribute: a name plus an ordered, finite domain.
///
/// The order of values is arbitrary but fixed; the *smart backtracking*
/// procedure of the paper (§3.2) scans domain values in this circular
/// order, so the order is part of the interface contract.
#[derive(Clone, Debug, PartialEq)]
pub struct Attribute {
    name: String,
    /// Human-readable value labels, one per domain value.
    values: Vec<String>,
    /// Optional numeric interpretation of each value (for SUM aggregates).
    numeric: Option<Vec<f64>>,
}

impl Attribute {
    /// Creates a categorical attribute with the given value labels.
    ///
    /// # Errors
    /// Returns [`HdbError::InvalidSchema`] if fewer than two values are
    /// supplied (an attribute with fanout < 2 carries no information and
    /// would make the query tree degenerate) or if more than
    /// `ValueId::MAX` values are supplied.
    pub fn categorical(
        name: impl Into<String>,
        values: impl IntoIterator<Item = impl Into<String>>,
    ) -> Result<Self> {
        let name = name.into();
        let values: Vec<String> = values.into_iter().map(Into::into).collect();
        if values.len() < 2 {
            return Err(HdbError::InvalidSchema(format!(
                "attribute `{name}` must have at least 2 values, got {}",
                values.len()
            )));
        }
        if values.len() > ValueId::MAX as usize {
            return Err(HdbError::InvalidSchema(format!(
                "attribute `{name}` has {} values; maximum supported fanout is {}",
                values.len(),
                ValueId::MAX
            )));
        }
        Ok(Self { name, values, numeric: None })
    }

    /// Creates a Boolean attribute with domain `{0, 1}`.
    pub fn boolean(name: impl Into<String>) -> Self {
        let name = name.into();
        Self {
            name,
            values: vec!["0".to_string(), "1".to_string()],
            numeric: Some(vec![0.0, 1.0]),
        }
    }

    /// Creates a categorical attribute whose values are the integers
    /// `0..fanout` (labels are their decimal representations) with the
    /// identity numeric interpretation.
    ///
    /// # Errors
    /// Same conditions as [`Attribute::categorical`].
    pub fn numeric_buckets(name: impl Into<String>, fanout: usize) -> Result<Self> {
        let mut attr = Self::categorical(name, (0..fanout).map(|v| v.to_string()))?;
        attr.numeric = Some((0..fanout).map(|v| v as f64).collect());
        Ok(attr)
    }

    /// Attaches a numeric interpretation (one `f64` per domain value).
    ///
    /// # Errors
    /// Returns [`HdbError::InvalidSchema`] if the length does not match the
    /// fanout.
    pub fn with_numeric(mut self, numeric: Vec<f64>) -> Result<Self> {
        if numeric.len() != self.values.len() {
            return Err(HdbError::InvalidSchema(format!(
                "attribute `{}`: numeric interpretation has {} entries for fanout {}",
                self.name,
                numeric.len(),
                self.values.len()
            )));
        }
        self.numeric = Some(numeric);
        Ok(self)
    }

    /// Attribute name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Domain size `|Dom(A_i)|` (the *fanout* of this attribute in the
    /// query tree).
    #[must_use]
    pub fn fanout(&self) -> usize {
        self.values.len()
    }

    /// Whether this is a Boolean attribute (fanout 2).
    #[must_use]
    pub fn is_boolean(&self) -> bool {
        self.values.len() == 2
    }

    /// Label of a domain value.
    ///
    /// # Panics
    /// Panics if `v` is out of the domain.
    #[must_use]
    pub fn value_label(&self, v: ValueId) -> &str {
        &self.values[v as usize]
    }

    /// Looks up a value by its label.
    #[must_use]
    pub fn value_by_label(&self, label: &str) -> Option<ValueId> {
        self.values.iter().position(|l| l == label).map(|i| i as ValueId)
    }

    /// The numeric interpretation of value `v`, if one is defined.
    #[must_use]
    pub fn numeric_value(&self, v: ValueId) -> Option<f64> {
        self.numeric.as_ref().map(|n| n[v as usize])
    }

    /// Whether this attribute has a numeric interpretation.
    #[must_use]
    pub fn is_numeric(&self) -> bool {
        self.numeric.is_some()
    }
}

/// An ordered collection of attributes.
///
/// The attribute order is the order of levels in the query tree; the paper
/// (§5.1) recommends decreasing fanout from root to leaf, which callers can
/// obtain via [`Schema::fanout_descending_order`].
#[derive(Clone, Debug, PartialEq)]
pub struct Schema {
    attributes: Vec<Attribute>,
}

impl Schema {
    /// Builds a schema from a list of attributes.
    ///
    /// # Errors
    /// Returns [`HdbError::InvalidSchema`] if no attributes are supplied or
    /// if two attributes share a name.
    pub fn new(attributes: Vec<Attribute>) -> Result<Self> {
        if attributes.is_empty() {
            return Err(HdbError::InvalidSchema("schema must have at least one attribute".into()));
        }
        for (i, a) in attributes.iter().enumerate() {
            for b in &attributes[..i] {
                if a.name == b.name {
                    return Err(HdbError::InvalidSchema(format!(
                        "duplicate attribute name `{}`",
                        a.name
                    )));
                }
            }
        }
        Ok(Self { attributes })
    }

    /// A schema of `n` Boolean attributes named `A1 … An`.
    ///
    /// # Panics
    /// Panics if `n == 0`.
    #[must_use]
    pub fn boolean(n: usize) -> Self {
        assert!(n > 0, "boolean schema needs at least one attribute");
        Self {
            attributes: (1..=n).map(|i| Attribute::boolean(format!("A{i}"))).collect(),
        }
    }

    /// Number of attributes `n`.
    #[must_use]
    pub fn len(&self) -> usize {
        self.attributes.len()
    }

    /// Whether the schema has no attributes (never true for a constructed
    /// schema; provided for API completeness).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.attributes.is_empty()
    }

    /// The attributes in order.
    #[must_use]
    pub fn attributes(&self) -> &[Attribute] {
        &self.attributes
    }

    /// A single attribute.
    ///
    /// # Panics
    /// Panics if `id` is out of range.
    #[must_use]
    pub fn attribute(&self, id: AttrId) -> &Attribute {
        &self.attributes[id]
    }

    /// Fanout of attribute `id`.
    ///
    /// # Panics
    /// Panics if `id` is out of range.
    #[must_use]
    pub fn fanout(&self, id: AttrId) -> usize {
        self.attributes[id].fanout()
    }

    /// Total domain size `|Dom(A_1, …, A_n)|` as an `f64` (it routinely
    /// exceeds `u64` for the 40-attribute Boolean datasets combined with
    /// large-fanout categorical attributes, so we keep it in floating
    /// point; all uses in the paper are ratios).
    #[must_use]
    pub fn domain_size(&self) -> f64 {
        self.attributes.iter().map(|a| a.fanout() as f64).product()
    }

    /// Domain size of a subset of attributes.
    #[must_use]
    pub fn domain_size_of(&self, attrs: &[AttrId]) -> f64 {
        attrs.iter().map(|&a| self.fanout(a) as f64).product()
    }

    /// Attribute ids sorted by decreasing fanout (stable: ties keep schema
    /// order). This is the ordering the paper recommends for the query
    /// tree (§5.1) because it minimises the smart-backtracking query cost.
    #[must_use]
    pub fn fanout_descending_order(&self) -> Vec<AttrId> {
        let mut ids: Vec<AttrId> = (0..self.len()).collect();
        ids.sort_by_key(|&i| std::cmp::Reverse(self.fanout(i)));
        ids
    }

    /// True iff every attribute is Boolean.
    #[must_use]
    pub fn is_all_boolean(&self) -> bool {
        self.attributes.iter().all(Attribute::is_boolean)
    }
}

impl fmt::Display for Schema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Schema(")?;
        for (i, a) in self.attributes.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{}[{}]", a.name, a.fanout())?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn boolean_attribute_has_fanout_two() {
        let a = Attribute::boolean("x");
        assert_eq!(a.fanout(), 2);
        assert!(a.is_boolean());
        assert_eq!(a.numeric_value(1), Some(1.0));
    }

    #[test]
    fn categorical_rejects_tiny_domains() {
        assert!(Attribute::categorical("c", ["only"]).is_err());
        assert!(Attribute::categorical("c", Vec::<String>::new()).is_err());
        assert!(Attribute::categorical("c", ["a", "b"]).is_ok());
    }

    #[test]
    fn numeric_interpretation_length_checked() {
        let a = Attribute::categorical("c", ["a", "b", "c"]).unwrap();
        assert!(a.clone().with_numeric(vec![1.0, 2.0]).is_err());
        let a = a.with_numeric(vec![1.0, 2.0, 3.0]).unwrap();
        assert_eq!(a.numeric_value(2), Some(3.0));
    }

    #[test]
    fn schema_rejects_duplicate_names() {
        let err = Schema::new(vec![Attribute::boolean("x"), Attribute::boolean("x")]);
        assert!(err.is_err());
    }

    #[test]
    fn schema_rejects_empty() {
        assert!(Schema::new(vec![]).is_err());
    }

    #[test]
    fn domain_size_is_product_of_fanouts() {
        let s = Schema::new(vec![
            Attribute::boolean("a"),
            Attribute::categorical("b", ["x", "y", "z"]).unwrap(),
            Attribute::categorical("c", ["1", "2", "3", "4", "5"]).unwrap(),
        ])
        .unwrap();
        assert_eq!(s.domain_size(), 30.0);
        assert_eq!(s.domain_size_of(&[1, 2]), 15.0);
    }

    #[test]
    fn fanout_descending_order_is_stable() {
        let s = Schema::new(vec![
            Attribute::boolean("a"),
            Attribute::categorical("b", ["x", "y", "z"]).unwrap(),
            Attribute::boolean("c"),
            Attribute::categorical("d", ["1", "2", "3", "4"]).unwrap(),
        ])
        .unwrap();
        assert_eq!(s.fanout_descending_order(), vec![3, 1, 0, 2]);
    }

    #[test]
    fn value_lookup_roundtrips() {
        let a = Attribute::categorical("make", ["ford", "toyota", "honda"]).unwrap();
        assert_eq!(a.value_by_label("toyota"), Some(1));
        assert_eq!(a.value_label(1), "toyota");
        assert_eq!(a.value_by_label("bmw"), None);
    }

    #[test]
    fn boolean_schema_names_attributes() {
        let s = Schema::boolean(3);
        assert_eq!(s.len(), 3);
        assert_eq!(s.attribute(0).name(), "A1");
        assert!(s.is_all_boolean());
        assert_eq!(s.domain_size(), 8.0);
    }
}
