(** A Venti-style content-addressed archival store on a SERO device
    (Section 4.2, first proposal; after Quinlan & Dorward).

    Data is stored in immutable blocks addressed by their SHA-256
    {e score}; hash trees are built from the leaves up, with parents
    holding the scores of their children, so one root score
    authenticates an arbitrary snapshot.  On an ordinary Venti the root
    must be "stored securely" somewhere else; on a SERO device the store
    simply {e heats the line holding the root}, making the whole
    hierarchy tamper-evident in place.

    The store appends blocks line-by-line (block 0 of each line stays
    reserved for the burned hash) and heats a line as soon as it fills —
    archival data never changes, so eager heating costs no flexibility
    and means every stored byte is covered by a burned hash. *)

type t

type score = Hash.Sha256.t
(** The address of a block: the SHA-256 of its contents. *)

val create : ?eager_heat:bool -> Sero.Device.t -> t
(** Manage a device as a Venti arena.  [eager_heat] (default true)
    burns each line's hash the moment the line fills. *)

val reindex : Sero.Device.t -> (t, string) result
(** Rebuild a store handle over an existing arena by re-reading and
    re-hashing every stored block — the score index is pure derived
    state, as it must be for an archival store.  Zero-length blocks are
    indistinguishable from line padding and are not re-indexed. *)

val device : t -> Sero.Device.t

val put : t -> string -> (score, string) result
(** Store a block of at most 510 bytes (the 512-byte sector payload
    minus the length header; longer inputs are an error — the client
    chunks, see {!put_stream}).  Returns its score.  Duplicate content
    dedupes to the same score and PBA. *)

val get : t -> score -> (string, string) result
(** Retrieve by score; verifies the content against the score. *)

val mem : t -> score -> bool

(** {1 Hash trees and snapshots} *)

val put_stream : t -> string -> (score, string) result
(** Chunk an arbitrary-length byte stream into leaves, build the hash
    tree bottom-up, store every node, and return the root score. *)

val get_stream : t -> score -> (string, string) result
(** Reassemble and verify a stream stored by {!put_stream}. *)

type snapshot = {
  label : string;
  root : score;
  taken_at : float;
}

val snapshot : t -> label:string -> (string * string) list -> (snapshot, string) result
(** Archive a set of named streams as one snapshot: each [(name, data)]
    becomes a stream, the catalogue of (name, root) pairs becomes the
    snapshot block, and its score is the snapshot root.  The line
    holding the root is heated immediately, whatever [eager_heat] says:
    the root is what must be tamper-evident. *)

val restore : t -> snapshot -> ((string * string) list, string) result
(** Read back and verify the full contents of a snapshot. *)

val verify_snapshot : t -> snapshot -> (unit, string) result
(** Walk the tree, re-hashing every node, and check the device-level
    verdicts of every line touched. *)

type stats = {
  blocks_stored : int;
  bytes_stored : int;
  dedup_hits : int;
  lines_heated : int;
}

val stats : t -> stats
