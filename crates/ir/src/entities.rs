//! Typed index newtypes ("entity references") for the IR arenas.
//!
//! Everything in a [`crate::Function`] is stored in flat `Vec` arenas and
//! referenced by these copy-cheap ids, following the Cranelift/LLVM style of
//! IR layout. Ids are only meaningful relative to their owning container
//! (instruction and block ids are per-function; function, global, queue and
//! semaphore ids are per-module).

use std::fmt;

macro_rules! entity {
    ($(#[$doc:meta])* $name:ident, $prefix:literal) => {
        entity!($(#[$doc])* $name, |f, i| write!(f, concat!($prefix, "{}"), i));
    };
    ($(#[$doc:meta])* $name:ident, |$f:ident, $i:ident| $show:expr) => {
        $(#[$doc])*
        #[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
        pub struct $name(pub u32);

        impl $name {
            #[inline]
            pub fn index(self) -> usize {
                self.0 as usize
            }
            #[inline]
            pub fn new(i: usize) -> Self {
                debug_assert!(i <= u32::MAX as usize);
                Self(i as u32)
            }
        }

        impl fmt::Debug for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                fmt::Display::fmt(self, f)
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, $f: &mut fmt::Formatter<'_>) -> fmt::Result {
                let $i = self.0;
                $show
            }
        }
    };
}

entity!(
    /// Reference to an instruction within a function's instruction arena.
    InstId,
    "%"
);
entity!(
    /// Reference to a basic block within a function.
    BlockId,
    "bb"
);
entity!(
    /// Reference to a function within a module.
    FuncId,
    "fn"
);
entity!(
    /// Reference to a global variable within a module.
    GlobalId,
    "g"
);
entity!(
    /// Reference to a runtime FIFO queue declared by the DSWP pass. Named
    /// by the observability layer's one queue-name formatter.
    QueueId,
    |f, i| fmt::Display::fmt(&twill_obs::QueueName(i as usize), f)
);
entity!(
    /// Reference to a runtime counting semaphore declared by the DSWP pass.
    SemId,
    "sem"
);

/// A dense secondary map from an entity id to a value, with a default.
///
/// Useful for analyses that annotate every instruction or block.
#[derive(Clone, Debug)]
pub struct EntityMap<V> {
    items: Vec<V>,
    default: V,
}

impl<V: Clone> EntityMap<V> {
    pub fn with_default(default: V) -> Self {
        Self { items: Vec::new(), default }
    }

    pub fn with_capacity(default: V, cap: usize) -> Self {
        Self { items: vec![default.clone(); cap], default }
    }

    pub fn get(&self, idx: usize) -> &V {
        self.items.get(idx).unwrap_or(&self.default)
    }

    pub fn set(&mut self, idx: usize, v: V) {
        if idx >= self.items.len() {
            self.items.resize(idx + 1, self.default.clone());
        }
        self.items[idx] = v;
    }

    pub fn len(&self) -> usize {
        self.items.len()
    }

    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entity_display_uses_prefix() {
        assert_eq!(InstId(3).to_string(), "%3");
        assert_eq!(BlockId(0).to_string(), "bb0");
        assert_eq!(FuncId(7).to_string(), "fn7");
        assert_eq!(GlobalId(1).to_string(), "g1");
        assert_eq!(QueueId(12).to_string(), "q12");
        assert_eq!(SemId(2).to_string(), "sem2");
    }

    #[test]
    fn entity_roundtrip_index() {
        let b = BlockId::new(42);
        assert_eq!(b.index(), 42);
        assert_eq!(b, BlockId(42));
    }

    #[test]
    fn entity_map_defaults_and_grows() {
        let mut m: EntityMap<u32> = EntityMap::with_default(9);
        assert_eq!(*m.get(100), 9);
        m.set(5, 1);
        assert_eq!(*m.get(5), 1);
        assert_eq!(*m.get(4), 9);
        assert_eq!(m.len(), 6);
    }

    #[test]
    fn entity_ordering_follows_index() {
        assert!(InstId(1) < InstId(2));
        let mut v = vec![BlockId(3), BlockId(1), BlockId(2)];
        v.sort();
        assert_eq!(v, vec![BlockId(1), BlockId(2), BlockId(3)]);
    }
}
