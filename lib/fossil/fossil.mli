(** A fossilised index on a SERO device (Section 4.2, second proposal;
    after Zhu & Hsu, SIGMOD 2005).

    The index is a tree built {e from the root down}: a record's key
    hash completely determines its path (branch [i] at level [l] is byte
    [l] of the hash modulo the branching factor), so neither inserts nor
    lookups need any mutable bookkeeping that an attacker could rewrite.
    Entries are appended into the current node for their path; when a
    node fills, it is {e sealed}.  On the original design sealing meant
    copying the node to a WORM device — "a SERO device provides
    appropriate support for a fossilised index as it makes copying the
    completed node to the WORM unnecessary": here each node is exactly
    one heat line, and sealing is heating that line in place.

    Entries in sealed nodes are tamper-evident; entries still in open
    nodes are the design's inherent vulnerability window, which shrinks
    as nodes fill.  {!verify} checks every sealed node's burned hash. *)

type t

val create : ?branching:int -> Sero.Device.t -> t
(** A fresh index over a device.  [branching] (default 16) is the
    fan-out per level. *)

val reload : Sero.Device.t -> (t, string) result
(** Rebuild the node map of an existing index by scanning node headers —
    no checkpoint needed (the structure is self-describing, as a
    trustworthy index must be). *)

val device : t -> Sero.Device.t

val insert : t -> key:string -> value:string -> (unit, string) result
(** Append [(key, value)] ([value] at most 128 bytes).  Keys may repeat;
    all values are retained (history-independence: nothing is ever
    overwritten). *)

val find : t -> key:string -> (string list, string) result
(** Every value ever inserted under [key], in insertion order. *)

val verify : t -> (int * Sero.Tamper.verdict) list
(** Device verdict of every sealed node's line; an empty list of
    non-[Intact] entries means the fossil record is untouched. *)

type stats = {
  nodes : int;
  sealed_nodes : int;
  entries : int;
  depth : int;  (** Deepest level with a node. *)
}

val stats : t -> stats
