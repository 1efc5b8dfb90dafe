(** Bounded, sharded memoization table for the interleaving explorer.

    Each shard keeps a {e hot} and a {e cold} hashtable. Inserts go to
    hot; when hot reaches the shard's capacity the generations rotate
    (cold is discarded and counted as evictions, hot becomes cold, a
    fresh hot starts). Lookups hit hot first, then cold, promoting cold
    hits back into hot — entries referenced at least once per
    generation are never evicted, entries untouched for two full
    generations are. Eviction can only cost re-expansion (the explorer
    treats a miss as "not yet explored"), never correctness, so the
    table bounds peak memory at roughly [2 * capacity] summaries while
    leaving results bit-identical to an unbounded memo.

    A standalone exploration uses one unlocked shard. A campaign's
    shared table is split into shards, each with its own mutex when
    [locked:true], so candidates explored on several domains contend
    per shard rather than on one lock; with [locked:false] the mutexes
    are never taken.

    Shard selection hashes the {e full} key with FNV-1a — unlike
    [Hashtbl.hash], whose meaningful-nodes limit can truncate what it
    reads of large structured keys, every byte of the encoding
    participates, so long keys sharing a prefix still spread across
    shards. Equality remains on the whole key: shard choice can affect
    only balance, never answers. A one-shard table skips the hash. *)

type 'a t

val create : shards:int -> cap:int -> locked:bool -> 'a t
(** [cap] is the {e total} hot-generation capacity, split evenly across
    [shards] (at least one entry per shard). [shards] must be a power
    of two. *)

val find : 'a t -> string -> 'a option
val add : 'a t -> string -> 'a -> unit

val evictions : 'a t -> int
(** Entries discarded by generation rotation so far. *)

val length : 'a t -> int
(** Distinct keys currently resident: a key alive in both generations
    (promoted from cold back into hot) counts once. Racy under
    concurrency. *)

val shard_of_string : shards:int -> string -> int
(** The shard index [create] would use — exposed so tests can assert
    balance. [shards] must be a power of two. *)

val fnv1a64 : string -> int64
(** FNV-1a over the whole string (the hash behind
    [shard_of_string]). *)
