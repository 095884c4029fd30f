type t = Device of Device.t | Queue of Queue.t | Cache of Bcache.t

let device = function
  | Device d -> d
  | Queue q -> Queue.device q
  | Cache c -> Bcache.device c

let read ?prio ?tenant t ~pba =
  match t with
  | Device d -> Device.read_block d ~pba
  | Queue q -> Queue.read_block ?prio ?tenant q ~pba
  | Cache c -> Bcache.read_block ?prio ?tenant c ~pba

let write ?prio ?tenant t ~pba payload =
  match t with
  | Device d -> Device.write_block d ~pba payload
  | Queue q -> Queue.write_block ?prio ?tenant q ~pba payload
  | Cache c -> Bcache.write_block ?prio ?tenant c ~pba payload

let heat ?tenant t ~line ~timestamp =
  match t with
  | Device d -> Device.heat_line d ~line ~timestamp ()
  | Queue q -> Queue.heat_line ?tenant q ~line ~timestamp ()
  | Cache c -> Bcache.heat_line ?tenant c ~line ~timestamp ()

let verify t ~line =
  match t with
  | Cache c -> Bcache.verify_line c ~line
  | Device _ | Queue _ -> Device.verify_line (device t) ~line

let sync = function Cache c -> Bcache.sync c | Device _ | Queue _ -> ()
