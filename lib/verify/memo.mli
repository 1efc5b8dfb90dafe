(** Bounded memoization table for the interleaving explorer.

    {b Generations.} The table keeps a {e hot} and a {e cold}
    generation. Inserts go to hot; when hot reaches the table's
    capacity the generations rotate: cold is discarded, and every cold
    key that hot does not also hold counts as one eviction; hot becomes
    cold; cold's arrays, cleared, become the new hot. Lookups hit hot
    first, then cold, promoting cold hits back into hot — entries
    referenced at least once per generation are never evicted, entries
    untouched for two full generations are. Eviction can only cost
    re-expansion (the explorer treats a miss as "not yet explored"),
    never correctness, so the table bounds peak memory at roughly
    [2 * capacity] summaries while leaving results bit-identical to an
    unbounded memo.

    {b Slot layout.} A generation is a flat open-addressed table with
    linear probing: one [int array] with lanes a and b of each slot
    side by side, one tag byte per slot (0 marks an empty slot) and
    one value array. A probe starts at a slot scaled from a
    multiplicative mix of lane a. The tag's high four bits copy lane
    b's low four, so a probe passes most occupied slots without
    reading their lanes, and a miss usually touches only the tag
    bytes.

    {b Exact keys.} A 16-byte key (a [Uldma_util.Fp128] fingerprint,
    or any other 16 bytes) is read as two int64 halves: lanes a and b
    are their low 63 bits, and the tag carries each half's bit 63. So
    (tag, a, b) determines the key and no two 16-byte keys share a
    slot. A key of any other length (the paranoid full-encoding keys)
    is interned in a side [Hashtbl] to an id that becomes
    lane a, under a tag bit no 16-byte key sets; the id is released
    when its key is evicted. Such keys therefore stay exact too and
    never alias a fingerprint.

    {b Growth.} A generation starts at 16 slots and doubles whenever an
    insert would take its load past 3/4, stopping at the size that
    holds the table's capacity at that load. Cold-hit promotions can
    push hot past its capacity before the next insert rotates it; it
    then keeps doubling. A generation at capacity costs about 4.2
    words per key (two lanes, a value and a tag byte per slot, over a
    load of 3/4). *)

type 'a t

val create : shards:int -> cap:int -> locked:bool -> 'a t
(** One table whose hot generation holds [cap] keys. [shards] and
    [locked] have no effect. They are left from the mutex-guarded
    shards of the multi-domain campaign, and stay only because
    [perfbench/] still passes both labels (ROADMAP.md lists their
    removal). *)

val find : 'a t -> string -> 'a option
val add : 'a t -> string -> 'a -> unit

val evictions : 'a t -> int
(** Entries discarded by generation rotation so far: cold keys that
    hot did not also hold when the generations rotated. *)

val clear : 'a t -> unit
(** Drop every entry; both generations shrink back to their initial
    size. [evictions] keeps counting from where it was. *)

val length : 'a t -> int
(** Distinct keys currently resident: a key alive in both generations
    (promoted from cold back into hot) counts once. *)
