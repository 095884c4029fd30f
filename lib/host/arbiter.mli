(** Tenant arbiters for {!Sero.Queue}: the host-layer policies that
    decide {e which tenant} the sled serves next (the queue's own
    scheduling policy still orders that tenant's requests).

    All three policies are deterministic — ties break toward the lowest
    tenant id because the queue hands views sorted by tenant. *)

type policy =
  | Tenant_blind
      (** No arbiter installed: dispatch ignores tenant tags entirely
          (bit-identical to the pre-tenant pipeline). *)
  | Arrival_order
      (** Serve the tenant holding the oldest pending request — global
          FIFO at tenant granularity.  A heavy tenant's backlog starves
          light tenants; E25's contrast arm. *)
  | Fair_share of (int -> float)
      (** Weighted fair share: serve the backlogged tenant with the
          least consumed sled service normalised by its weight
          ([Sero.Queue.tenant_service / weight]).  Service is charged
          when a pass runs, so each dispatch sees up-to-date ledgers.
          Weights must be positive. *)

val policy_name : policy -> string
(** ["blind"], ["fifo"], ["wfs"] — table labels. *)

val install : Sero.Queue.t -> policy -> unit
(** Install the policy's arbiter on the queue (or remove it for
    [Tenant_blind]). *)
