(** The threat model of Section 5 (after Hsu & Ong and Hasan et al.),
    encoded as data so that each attack in {!Attacks} declares which
    capabilities it exercises and the matrix can be read against the
    model. *)

type capability =
  | Fs_access  (** Root on every host: can issue any file-system call. *)
  | Device_access
      (** Can detach the device and drive it raw from a laptop: any
          magnetic or electrical operation at any address. *)
  | Knows_formats
      (** Knows every on-medium format and can compute hashes — no
          security through obscurity. *)
  | Bulk_eraser  (** Can degauss the whole medium. *)

type goal =
  | Destroy_record  (** Make a stored record unreadable. *)
  | Alter_record  (** Change a stored record's contents. *)
  | Mask_record  (** Hide a record behind a copy or index games. *)
  | Erase_history  (** Remove all trace that the record existed. *)

type constraint_ =
  | No_physical_destruction
      (** "The attacker would not like to draw attention to his actions,
          for instance by removing or physically destroying the storage
          system" — visible vandalism is out of scope. *)
  | Limited_offline_time
      (** The device may only disappear briefly (laptop session). *)

val attacker_capabilities : capability list
(** The powerful-insider attacker has all four capabilities. *)
