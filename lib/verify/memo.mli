(** Bounded, sharded memoization table for the interleaving explorer,
    plus an optional persistent cross-scenario cache.

    {2 Bounded two-generation table}

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

    Shard selection hashes the {e full} key with FNV-1a — unlike
    [Hashtbl.hash], whose meaningful-nodes limit can truncate what it
    reads of large structured keys, every byte of the encoding
    participates, so long keys sharing a prefix still spread across
    shards. Equality remains on the whole key: shard choice can affect
    only balance, never answers.

    With [locked:true] each shard carries a mutex (for multi-domain
    use); with [locked:false] the mutexes are never taken. *)

type 'a t

val create : shards:int -> cap:int -> locked:bool -> 'a t
(** [cap] is the {e total} hot-generation capacity, split evenly across
    [shards] (at least one entry per shard). [shards] must be a power
    of two. *)

val find : 'a t -> string -> 'a option
val add : 'a t -> string -> 'a -> unit

val try_add : 'a t -> string -> 'a -> bool
(** Non-blocking {!add}: take the shard lock only if it is free.
    Returns [false] — without inserting — when another domain holds the
    lock, so a writer can defer the entry to a private generation and
    {!merge_batch} it later instead of stalling. Always succeeds on an
    [locked:false] table. *)

val find_with_shard : 'a t -> string -> 'a option * int
(** [find] plus the shard index the key hashed to, so a caller can pair
    the answer with {!shard_owner} (the explorer uses this to steer
    steals toward the domain feeding the shards it reads). *)

val merge_batch : 'a t -> domain:int -> (string, 'a) Hashtbl.t -> int
(** Merge a whole private generation into the table, grouping entries
    by shard so each shard's lock is taken at most once per call (vs.
    once per entry with {!add}). The first domain to populate a shard
    becomes its pinned owner (see {!shard_owner}). Returns the number
    of entries merged. The source table is not modified. *)

val shard_owner : 'a t -> int -> int
(** Domain pinned to the shard by the first {!merge_batch} that
    populated it, or [-1] while the shard is unowned. Plain {!add}
    never claims ownership. *)

val evictions : 'a t -> int
(** Entries discarded by generation rotation so far. *)

val locked : 'a t -> bool
(** Whether the table was created with per-shard mutexes. A caller
    holding an unlocked table has no concurrency to defend against and
    can write through directly instead of buffering locally. *)

val length : 'a t -> int
(** Distinct keys currently resident: a key alive in both generations
    (promoted from cold back into hot) counts once. Racy under
    concurrency. *)

val iter : 'a t -> (string -> 'a -> unit) -> unit
(** Iterate resident entries, hot before cold; a key present in both
    generations is visited only once (the hot copy). Not
    concurrency-safe: call only after all workers have joined. *)

val shard_of_string : shards:int -> string -> int
(** The shard index [create] would use — exposed so tests can assert
    balance. [shards] must be a power of two. *)

val fnv1a64 : string -> int64
(** FNV-1a over the whole string (the hash behind
    [shard_of_string]). *)

(** {2 Persistent cross-scenario cache}

    A [Marshal]-ed file mapping (scenario, net backend) -> (root
    fingerprint, state key -> safe-subtree summary). Only {e safe}
    summaries (no violations) are ever persisted, so a warm hit can
    skip a subtree without being able to suppress a violation. Three
    guards decide whether a load is usable, and any failure silently
    yields an empty cache (the file is rebuilt on save):
    - a schema version stamped into the file ([schema]);
    - the section key: scenario name {e and} net-backend identity
      (e.g. [Uldma_net.Backend.cache_key], which folds in the tick).
      The net backend must be part of the key because the root
      fingerprint alone cannot distinguish backends — no transfer is
      in flight at the root, so a timed run would otherwise warm-start
      from a Null summary whose subtree counts are simply wrong;
    - the root kernel's fingerprint (encodings are root-relative, so a
      rebuilt-differently root invalidates its section's entries). *)
module Persist : sig
  type entry = { p_paths : int; p_stuck : int }

  val schema : int
  (** 4: entries keyed by 16-byte Fp128 fingerprint keys computed over
      write-maintained component digests ({!Uldma_os.Kernel.state_key}).
      Earlier schemas are rejected wholesale — full-encoding string keys
      (≤ 2) and the schema-3 fingerprint function can never match a
      current lookup. *)

  val load :
    file:string -> scenario:string -> net:string -> root:int64 -> (string, entry) Hashtbl.t option
  (** [None] when the file is missing, unreadable, of another schema,
      or holds no matching (scenario, net, root) section. The returned
      table must be treated as read-only (concurrent lookups are safe
      only without writers). *)

  val save :
    file:string -> scenario:string -> net:string -> root:int64 -> (string * entry) list -> unit
  (** Merge [entries] into the file's section for [(scenario, net)]
      (replacing it wholesale if the stored root fingerprint differs)
      and rewrite the file atomically (temp file + rename). Other
      sections are preserved — the on-disk body is re-read under an
      exclusive lock ([file ^ ".lock"] sidecar for cross-process
      savers, a process-wide mutex for same-process domains) so
      concurrent saves serialise instead of clobbering each other's
      freshly written sections. Write errors are silently ignored: the
      cache is an accelerator, never a dependency. *)
end
