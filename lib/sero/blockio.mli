(** The block-IO port: one value that names which layer of the stack a
    consumer talks to — the bare {!Device}, the {!Queue} request
    pipeline, or the {!Bcache} buffer cache over a queue.

    A file system or an array picks its stack once, when it builds the
    port, and every block operation after that goes through the port
    with no further routing at the call site.  Each operation is the
    named layer's own synchronous call, so a port is bit-identical to
    calling that layer directly.  [prio] and [tenant] are ignored by a
    bare device. *)

type t = Device of Device.t | Queue of Queue.t | Cache of Bcache.t

val device : t -> Device.t
(** The device at the bottom of the stack. *)

val read :
  ?prio:Queue.prio ->
  ?tenant:int ->
  t ->
  pba:int ->
  (string, Device.read_error) result

val write :
  ?prio:Queue.prio ->
  ?tenant:int ->
  t ->
  pba:int ->
  string ->
  (unit, Device.write_error) result

val heat :
  ?tenant:int ->
  t ->
  line:int ->
  timestamp:float ->
  (Hash.Sha256.t, Device.heat_error) result

val verify : t -> line:int -> Tamper.verdict
(** Electrical-path verify: a cache flushes the line's dirty blocks
    first ({!Bcache.verify_line}); a queue or a bare device is judged
    directly ({!Device.verify_line}). *)

val sync : t -> unit
(** {!Bcache.sync} on a cache; a no-op below one, since queue and
    device writes are durable when their call returns. *)
