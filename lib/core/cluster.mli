(** An N-node NOW: one full machine per node, connected by a full mesh
    of timed links.

    Every ordered pair [(i, j)] of distinct nodes gets its own
    {!Uldma_net.Netif} channel, so traffic [i -> j] serialises
    against other [i -> j] traffic but not against [j -> i] or against
    other pairs — the model of a switched point-to-point fabric
    (ATM / HIC), not a shared bus.

    {2 Addressing and routing}

    The paper's remote window ([Layout.remote_base], 2^32 bytes wide)
    is subdivided: bits [26..31] of the remote {e offset} carry a node
    field. [remote_paddr ~node k off] yields the offset that routes to
    node [k]; a zero node field (a plain offset below 64 MiB) routes to
    the sender's successor [(i + 1) mod n] — which is exactly "the
    peer" in a two-node cluster. Each destination node exposes 64 MiB
    of addressable RAM through the window; the field supports up to
    {!max_nodes} nodes.

    On the wire, remote atomics travel as 32-byte encoded requests
    (tagged with a high destination bit) and their replies return as
    plain 8-byte writes to the originator's mailbox.

    {2 Co-simulation}

    [run] interleaves the kernels causally: the runnable node with the
    lowest clock steps next (lowest index on ties), idle nodes have
    their clocks advanced to the next packet arrival so deliveries are
    never starved, and the run ends when every node has exited and all
    wires are empty. *)

open Uldma_os

type t

val max_nodes : int
(** 62 — the widest node field the remote window can carry. *)

val create :
  ?net:Uldma_net.Backend.t ->
  ?config_of:(int -> Kernel.config) ->
  nodes:int ->
  config:Kernel.config ->
  unit ->
  t
(** [create ~nodes ~config ()] builds [nodes] kernels (in index order,
    so trace machine ids follow node indices) and the full mesh of
    netifs. [?config_of] overrides the configuration per node index;
    [?net] picks the wire model (default [Backend.null], i.e. instant
    links). Raises [Invalid_argument] unless
    [2 <= nodes <= max_nodes]. *)

val nodes : t -> int
val node : t -> int -> Kernel.t
(** The kernel of node [i]; raises [Invalid_argument] out of range. *)

(** {2 Remote addressing} *)

val remote_paddr : node:int -> int -> int
(** [remote_paddr ~node off] is the remote-window offset (suitable for
    [Kernel.map_remote_pages]) addressing physical address [off] on
    node [node]. [off] must stay below 64 MiB. *)

val map_remote :
  t -> src:int -> dst:int -> Process.t -> remote_paddr:int -> n:int ->
  perms:Uldma_mem.Perms.t -> int
(** Map [n] pages of node [dst]'s physical memory (starting at its
    local page-aligned address [remote_paddr]) into a process running
    on node [src]. Returns the fresh virtual address. *)

(** {2 Driving the co-simulation} *)

val settle : t -> int
(** Deliver everything still in flight regardless of time (end of run),
    looping until the mesh is empty — atomic requests generate replies,
    which are drained too. Advances every node clock to the last
    arrival. Returns packets delivered. *)

type stop = All_exited | Max_steps | Predicate

val run : t -> ?max_steps:int -> ?until:(t -> bool) -> unit -> stop
(** Causally interleave all nodes (see the header comment) until every
    machine has exited and the mesh is empty, the step bound is hit, or
    the predicate fires. *)

val now_ps : t -> Uldma_util.Units.ps
(** The maximum of the node clocks. *)

val last_arrival_ps : t -> Uldma_util.Units.ps
(** Arrival time of the latest packet delivered so far. *)

val packets_into : t -> int -> int
(** Packets delivered {e into} node [i] (writes + atomic requests +
    replies). *)

val write_bytes_into : t -> int -> int
(** Payload bytes of plain remote writes delivered into node [i]
    (excludes atomic requests and replies — the "useful data"
    measure the old two-node cluster reported). *)
