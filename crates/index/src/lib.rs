//! Indexing substrate for Aeetes (paper §3).
//!
//! * [`GlobalOrder`] — the token order `O`: ascending frequency over the
//!   derived dictionary; document tokens unknown to the dictionary
//!   ("invalid" tokens) are treated as frequency 0 (§3.2).
//! * [`prefix_len`] / window bound helpers — the length- and prefix-filter
//!   arithmetic of §3.1.
//! * [`ClusteredIndex`] — the clustered inverted index: for each token, one
//!   entry per `(derived-entity length, origin entity)` cluster of the
//!   derived entities holding it, grouped by length and by the lowest
//!   position the token takes in the cluster's ordered sets — which is all
//!   the prefix filter asks of a cluster, so a group stores it once — and
//!   then ordered by origin, enabling the batch skips of §3.2; and, for
//!   verification, each origin's variants as bit masks over the origin's
//!   shared key pool ([`OriginBlock`]).

mod clustered;
mod filters;
mod order;

pub use clustered::{
    ClusteredIndex, IdArena, IdWidth, Ids, IndexArenas, IndexArenasRef, IndexDraft, Keys, LengthGroup, OriginBlock, PackedRanks, Pool, StoredId,
    TokenPostings,
};
pub use filters::{metric_window_bounds, prefix_len, WindowBounds};
pub use order::{GlobalOrder, VALID_BIT};
