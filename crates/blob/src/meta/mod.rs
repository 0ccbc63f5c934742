//! Distributed versioned metadata: the segment-tree algorithm
//! ([`tree`]) and the metadata-provider storage/partitioning ([`store`]).

pub(crate) mod cache;
pub mod store;
pub mod tree;

pub use store::{group_by_partition, node_key_hash, partition, MetaStore};
pub(crate) use tree::{Descent, RangeQuery};
pub use tree::{
    created_ranges, BaseSnapshot, MetaNode, NodeKey, NodeRange, NodeRef, PageSource,
    PendingWrite, TreeBuilder, TreeReader,
};
