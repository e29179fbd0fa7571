//! Typed object store: real values + modelled costs.

use std::any::Any;
use std::collections::HashMap;
use std::marker::PhantomData;
use std::sync::Arc;

use scriptflow_simcluster::store::{ObjectId, ObjectStoreModel};
use scriptflow_simcluster::SimDuration;

use crate::error::{RayError, RayResult};

/// Typed reference to an object in the store (Ray's `ObjectRef`).
pub struct ObjRef<T> {
    id: ObjectId,
    _marker: PhantomData<fn() -> T>,
}

// Manual impls: derive would bound T unnecessarily.
impl<T> Clone for ObjRef<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for ObjRef<T> {}
impl<T> std::fmt::Debug for ObjRef<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ObjRef({})", self.id.0)
    }
}

impl<T> ObjRef<T> {
    /// The underlying store id.
    pub fn id(&self) -> ObjectId {
        self.id
    }
}

/// The store: holds real values (type-erased) and delegates cost
/// accounting to the [`ObjectStoreModel`].
pub struct TypedStore {
    model: ObjectStoreModel,
    values: HashMap<ObjectId, Arc<dyn Any + Send + Sync>>,
    /// Monotone access stamps for LRU eviction.
    access: HashMap<ObjectId, u64>,
    access_seq: u64,
}

impl TypedStore {
    /// An empty store over the given cost model.
    pub fn new(model: ObjectStoreModel) -> Self {
        TypedStore {
            model,
            values: HashMap::new(),
            access: HashMap::new(),
            access_seq: 0,
        }
    }

    fn touch(&mut self, id: ObjectId) {
        self.access_seq += 1;
        self.access.insert(id, self.access_seq);
    }

    /// Store `value`, declaring its serialized size; returns the typed
    /// reference and the time the put took.
    pub fn put<T: Send + Sync + 'static>(
        &mut self,
        value: T,
        bytes: u64,
    ) -> (ObjRef<T>, SimDuration) {
        let (id, cost) = self.model.put(bytes);
        self.values.insert(id, Arc::new(value));
        self.touch(id);
        (
            ObjRef {
                id,
                _marker: PhantomData,
            },
            cost,
        )
    }

    /// Fetch a value; returns a shared handle and the time the get took.
    ///
    /// Every call pays the full copy cost again — the Ray behaviour the
    /// paper measured for large pinned models.
    pub fn get<T: Send + Sync + 'static>(
        &mut self,
        r: ObjRef<T>,
    ) -> RayResult<(Arc<T>, SimDuration)> {
        let cost = self
            .model
            .get(r.id)
            .map_err(|_| RayError::ObjectMissing { id: r.id.0 })?;
        let any = self
            .values
            .get(&r.id)
            .ok_or(RayError::ObjectMissing { id: r.id.0 })?
            .clone();
        let typed = any
            .downcast::<T>()
            .map_err(|_| RayError::ObjectTypeMismatch {
                id: r.id.0,
                expected: std::any::type_name::<T>(),
            })?;
        self.touch(r.id);
        Ok((typed, cost))
    }

    /// Evict least-recently-used objects until resident bytes drop to
    /// `target_bytes` (Ray's plasma eviction under memory pressure).
    /// Returns the evicted object ids, oldest first.
    pub fn evict_lru(&mut self, target_bytes: u64) -> Vec<ObjectId> {
        let mut evicted = Vec::new();
        while self.model.resident_bytes() > target_bytes {
            let Some((&victim, _)) = self.access.iter().min_by_key(|(_, stamp)| **stamp) else {
                break;
            };
            self.model.delete(victim).expect("victim is resident");
            self.values.remove(&victim);
            self.access.remove(&victim);
            evicted.push(victim);
        }
        evicted
    }

    /// Charge one get by raw id without fetching the value (used by the
    /// scheduler for declared task inputs; the typed fetch happens later
    /// inside the task closure).
    pub fn get_cost_by_id(&mut self, id: ObjectId) -> RayResult<SimDuration> {
        self.model
            .get(id)
            .map_err(|_| RayError::ObjectMissing { id: id.0 })
    }

    /// Size of one object's payload, if resident.
    pub fn size_of<T>(&self, r: ObjRef<T>) -> Option<u64> {
        self.model.size_of(r.id)
    }

    /// Remove an object.
    pub fn delete<T>(&mut self, r: ObjRef<T>) -> RayResult<()> {
        self.model
            .delete(r.id)
            .map_err(|_| RayError::ObjectMissing { id: r.id.0 })?;
        self.values.remove(&r.id);
        self.access.remove(&r.id);
        Ok(())
    }

    /// Total bytes resident (cost-model view).
    pub fn resident_bytes(&self) -> u64 {
        self.model.resident_bytes()
    }

    /// (puts, gets) counters.
    pub fn op_counts(&self) -> (u64, u64) {
        self.model.op_counts()
    }

    /// True if the store is over capacity (spilling).
    pub fn is_spilling(&self) -> bool {
        self.model.is_spilling()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scriptflow_simcluster::store::StoreConfig;

    fn store() -> TypedStore {
        TypedStore::new(ObjectStoreModel::new(StoreConfig {
            op_latency: SimDuration::from_micros(10),
            copy_bytes_per_sec: 1e6,
            capacity_bytes: 10_000,
            spill_penalty: 4.0,
        }))
    }

    #[test]
    fn put_get_roundtrip_with_costs() {
        let mut s = store();
        let (r, put_cost) = s.put(vec![1u32, 2, 3], 1_000);
        assert_eq!(put_cost.as_micros(), 10 + 1_000);
        let (v, get_cost) = s.get(r).unwrap();
        assert_eq!(*v, vec![1, 2, 3]);
        assert_eq!(get_cost.as_micros(), 10 + 1_000);
        assert_eq!(s.op_counts(), (1, 1));
        assert_eq!(s.size_of(r), Some(1_000));
    }

    #[test]
    fn type_mismatch_detected() {
        let mut s = store();
        let (r, _) = s.put(42i64, 8);
        // Forge a ref of the wrong type with the same id.
        let wrong: ObjRef<String> = ObjRef {
            id: r.id(),
            _marker: PhantomData,
        };
        let err = s.get(wrong).unwrap_err();
        assert!(matches!(err, RayError::ObjectTypeMismatch { .. }));
    }

    #[test]
    fn missing_object() {
        let mut s = store();
        let (r, _) = s.put("x".to_owned(), 1);
        s.delete(r).unwrap();
        assert!(matches!(s.get(r), Err(RayError::ObjectMissing { .. })));
    }

    #[test]
    fn refs_are_copy() {
        let mut s = store();
        let (r, _) = s.put(1u8, 1);
        let r2 = r;
        let _ = s.get(r).unwrap();
        let _ = s.get(r2).unwrap();
        assert_eq!(s.op_counts().1, 2);
    }

    #[test]
    fn lru_eviction_removes_stalest_first() {
        let mut s = store();
        let (a, _) = s.put(vec![0u8; 1], 4_000);
        let (b, _) = s.put(vec![1u8; 1], 4_000);
        let (c, _) = s.put(vec![2u8; 1], 4_000);
        // Refresh `a` so `b` becomes the LRU victim.
        let _ = s.get(a).unwrap();
        let evicted = s.evict_lru(8_000);
        assert_eq!(evicted, vec![b.id()]);
        assert!(s.get(b).is_err());
        assert!(s.get(a).is_ok() && s.get(c).is_ok());
        // Evicting to zero clears everything.
        let evicted = s.evict_lru(0);
        assert_eq!(evicted.len(), 2);
        assert_eq!(s.resident_bytes(), 0);
    }

    #[test]
    fn shared_value_not_cloned() {
        let mut s = store();
        let big = vec![0u8; 1024];
        let (r, _) = s.put(big, 1024);
        let (a, _) = s.get(r).unwrap();
        let (b, _) = s.get(r).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
    }
}
