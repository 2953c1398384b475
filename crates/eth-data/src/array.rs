//! Element arrays that either own their elements or view a received
//! buffer.
//!
//! A decoded block's positions and attribute arrays are the payload's own
//! bytes ([`crate::io::binary::decode`]): an [`Array`] made by
//! [`Array::view`] holds a [`Bytes`] handle, so whatever owns the bytes —
//! a received frame, a [`crate::io::pool`] lease, a file read back from a
//! spill — lives until the last array viewing it drops. Everything else
//! builds arrays from a `Vec`. Both deref to `[T]`, which is all a reader
//! sees; a writer asks for [`Array::make_mut`], which copies a view into
//! an owned `Vec` once, on purpose and in plain sight.

use crate::io::le::{view_le, LeElement};
use bytes::Bytes;
use serde::{DeError, Deserialize, Serialize, Value};
use std::fmt;
use std::ops::Deref;
use std::ptr::NonNull;

/// A `[T]` that is an owned `Vec<T>` or a view into [`Bytes`].
pub struct Array<T> {
    repr: Repr<T>,
}

enum Repr<T> {
    Owned(Vec<T>),
    /// `len` elements at `ptr`, inside the bytes `_keep` holds.
    View {
        ptr: NonNull<T>,
        len: usize,
        _keep: Bytes,
    },
}

// SAFETY: a view is a shared, immutable `[T]` whose storage `_keep` keeps
// alive; `Bytes` is `Send + Sync`, so sending or sharing the view is
// sending or sharing `&[T]`, which `T: Sync` allows.
unsafe impl<T: Send + Sync> Send for Array<T> {}
// SAFETY: as above; `&Array<T>` only ever hands out `&[T]`.
unsafe impl<T: Sync> Sync for Array<T> {}

impl<T: LeElement> Array<T> {
    /// The little-endian elements `bytes` holds, in place: `None` unless
    /// `bytes` starts at a multiple of `T::ALIGN` and is a whole number of
    /// elements. The array keeps `bytes` (and so its owner) alive.
    pub fn view(bytes: Bytes) -> Option<Array<T>> {
        let elements = view_le::<T>(&bytes)?;
        if elements.is_empty() {
            return Some(Array::default());
        }
        let (ptr, len) = (NonNull::from(elements).cast::<T>(), elements.len());
        Some(Array {
            repr: Repr::View {
                ptr,
                len,
                _keep: bytes,
            },
        })
    }
}

impl<T> Array<T> {
    fn is_view(&self) -> bool {
        matches!(self.repr, Repr::View { .. })
    }

    /// The elements as an owned `Vec` to change in place. A view is copied
    /// out once (and lets go of its bytes); an owned array is returned as
    /// it is.
    pub fn make_mut(&mut self) -> &mut Vec<T>
    where
        T: Clone,
    {
        if self.is_view() {
            self.repr = Repr::Owned(self.to_vec());
        }
        match &mut self.repr {
            Repr::Owned(v) => v,
            Repr::View { .. } => unreachable!("a view was just copied out"),
        }
    }
}

impl<T> Deref for Array<T> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        match &self.repr {
            Repr::Owned(v) => v,
            // SAFETY: `view` took `ptr` and `len` from a `&[T]` borrowed
            // from `_keep`'s bytes, which are immutable and stay where they
            // are for as long as `_keep` holds them.
            Repr::View { ptr, len, .. } => unsafe {
                std::slice::from_raw_parts(ptr.as_ptr(), *len)
            },
        }
    }
}

impl<T> Default for Array<T> {
    fn default() -> Self {
        Array::from(Vec::new())
    }
}

impl<T: Clone> Clone for Array<T> {
    /// An owned array clones its `Vec`; a view shares its bytes.
    fn clone(&self) -> Self {
        let repr = match &self.repr {
            Repr::Owned(v) => Repr::Owned(v.clone()),
            Repr::View { ptr, len, _keep: keep } => Repr::View {
                ptr: *ptr,
                len: *len,
                _keep: keep.clone(),
            },
        };
        Array { repr }
    }
}

impl<T> From<Vec<T>> for Array<T> {
    fn from(v: Vec<T>) -> Self {
        Array {
            repr: Repr::Owned(v),
        }
    }
}

impl<T> FromIterator<T> for Array<T> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        Array::from(iter.into_iter().collect::<Vec<T>>())
    }
}

impl<'a, T> IntoIterator for &'a Array<T> {
    type Item = &'a T;
    type IntoIter = std::slice::Iter<'a, T>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl<T: fmt::Debug> fmt::Debug for Array<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

impl<T: PartialEq> PartialEq for Array<T> {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl<T: Serialize> Serialize for Array<T> {
    fn serialize_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::serialize_value).collect())
    }
}

impl<T: Deserialize> Deserialize for Array<T> {
    fn deserialize_value(v: &Value) -> Result<Self, DeError> {
        Vec::deserialize_value(v).map(Array::from)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io::aligned::AlignedBuf;
    use crate::io::le::put_slice_le;
    use crate::vec3::Vec3;

    fn frozen<T: LeElement>(elements: &[T]) -> Bytes {
        let mut buf = AlignedBuf::new();
        put_slice_le(&mut buf, elements);
        buf.freeze()
    }

    #[test]
    fn a_view_reads_the_bytes_in_place() {
        let ids = [1u64, u64::MAX, 7];
        let bytes = frozen(&ids);
        let view = Array::<u64>::view(bytes.clone()).unwrap();
        assert!(view.is_view());
        assert_eq!(*view, ids);
        assert_eq!(view.as_ptr().cast::<u8>(), bytes.as_ptr());
        // a clone shares the bytes too
        let again = view.clone();
        assert!(again.is_view() && again.as_ptr() == view.as_ptr());
        assert_eq!(format!("{view:?}"), format!("{:?}", ids));
    }

    #[test]
    fn misaligned_or_ragged_bytes_are_no_view() {
        let bytes = frozen(&[1.0f32, 2.0, 3.0, 4.0]);
        assert!(Array::<u64>::view(bytes.slice(4..12)).is_none());
        assert!(Array::<f32>::view(bytes.slice(2..6)).is_none());
        assert!(Array::<Vec3>::view(bytes.slice(0..8)).is_none());
        assert_eq!(Array::<Vec3>::view(bytes.slice(4..16)).unwrap().len(), 1);
        // nothing to view is an owned empty array, holding no bytes
        assert!(!Array::<u64>::view(bytes.slice(8..8)).unwrap().is_view());
    }

    #[test]
    fn make_mut_copies_a_view_once_and_leaves_the_bytes_alone() {
        let bytes = frozen(&[1.0f32, 2.0]);
        let mut a = Array::<f32>::view(bytes.clone()).unwrap();
        a.make_mut().push(3.0);
        a.make_mut()[0] = -1.0;
        assert!(!a.is_view());
        assert_eq!(*a, [-1.0, 2.0, 3.0]);
        assert_eq!(*Array::<f32>::view(bytes).unwrap(), [1.0, 2.0]);
    }

    #[test]
    fn views_and_vecs_serialize_alike() {
        let v = vec![Vec3::ONE, Vec3::new(0.5, -2.0, 8.0)];
        let owned = Array::from(v.clone());
        let view = Array::<Vec3>::view(frozen(&v)).unwrap();
        assert_eq!(owned.serialize_value(), view.serialize_value());
        assert_eq!(owned.serialize_value(), v.serialize_value());
        let back = Array::<Vec3>::deserialize_value(&view.serialize_value()).unwrap();
        assert_eq!(back, view);
    }
}
