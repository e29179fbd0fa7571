//! Remote task specification.

use std::sync::Arc;

use scriptflow_simcluster::store::ObjectId;
use scriptflow_simcluster::SimDuration;

use crate::error::{RayError, RayResult};
use crate::store::{ObjRef, TypedStore};

/// Read-only view of the object store handed to a running task.
///
/// Access through this view is *free* in virtual time: the runtime already
/// charged the declared [`RayTask::inputs`] gets when the task started,
/// mirroring how a Ray worker deserializes its arguments once up front.
pub struct TaskData<'a> {
    store: &'a mut TypedStore,
}

impl<'a> TaskData<'a> {
    pub(crate) fn new(store: &'a mut TypedStore) -> Self {
        TaskData { store }
    }

    /// Fetch an object's value. The time cost was charged at task start
    /// if the ref was declared in `inputs`; undeclared accesses are a
    /// task bug the runtime rejects.
    pub fn get<T: Send + Sync + 'static>(&mut self, r: ObjRef<T>) -> RayResult<Arc<T>> {
        // Note: the cost-model `get` counter still ticks — undeclared
        // data access cannot hide from instrumentation.
        self.store.get(r).map(|(v, _)| v)
    }
}

type TaskFn<R> = Box<dyn FnOnce(&mut TaskData<'_>) -> RayResult<R> + Send>;

/// One remote task: resource request + cost declaration + real closure.
pub struct RayTask<R> {
    /// Display name (used in error traces).
    pub name: String,
    /// CPUs this task reserves (Ray's `num_cpus`; default 1).
    pub num_cpus: usize,
    /// Total CPU work, calibrated in Python-time. The kernel runs at
    /// exactly `num_cpus` parallelism — Ray pins library threads to the
    /// reservation (§IV-A "worker configuration").
    pub work: SimDuration,
    /// Object refs fetched when the task starts (each charges a store
    /// get).
    pub inputs: Vec<ObjectId>,
    /// The real computation.
    pub run: TaskFn<R>,
}

impl<R> RayTask<R> {
    /// A 1-CPU task with the given virtual work and closure.
    pub fn new(
        name: impl Into<String>,
        work: SimDuration,
        run: impl FnOnce(&mut TaskData<'_>) -> RayResult<R> + Send + 'static,
    ) -> Self {
        RayTask {
            name: name.into(),
            num_cpus: 1,
            work,
            inputs: Vec::new(),
            run: Box::new(run),
        }
    }

    /// Reserve more CPUs.
    pub fn with_num_cpus(mut self, cpus: usize) -> Self {
        assert!(cpus > 0, "a task needs at least one CPU");
        self.num_cpus = cpus;
        self
    }

    /// Declare an object-store input (charged at task start).
    pub fn with_input<T>(mut self, r: ObjRef<T>) -> Self {
        self.inputs.push(r.id());
        self
    }

    /// Wrap a user error into a task failure for this task.
    pub fn failure(name: &str, message: impl Into<String>) -> RayError {
        RayError::TaskFailed {
            task: name.to_owned(),
            message: message.into(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scriptflow_simcluster::ObjectStoreModel;

    #[test]
    fn builder_configures_task() {
        let mut store = TypedStore::new(ObjectStoreModel::default());
        let (r, _) = store.put(7i64, 8);
        let t = RayTask::new(
            "t",
            SimDuration::from_millis(5),
            move |d| Ok(*d.get(r)? * 2),
        )
        .with_num_cpus(2)
        .with_input(r);
        assert_eq!(t.num_cpus, 2);
        assert_eq!(t.inputs, vec![r.id()]);
        let mut data = TaskData::new(&mut store);
        let out = (t.run)(&mut data).unwrap();
        assert_eq!(out, 14);
    }
}
