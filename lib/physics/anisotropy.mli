(** Interface anisotropy under annealing — the model behind Figure 7.

    The perpendicular anisotropy of the Co/Pt stack comes from the
    Co–Pt interfaces; annealing mixes the interfaces (irreversibly) and
    the anisotropy collapses.  Mixing is modelled as a first-order
    thermally activated process with Arrhenius kinetics:

    {v m(T, t) = 1 - exp(-nu * exp(-Ea / kB T) * t) v}

    so the effective anisotropy after an anneal is
    [K(T) = K0 * (1 - m(T, t))].  At still higher temperatures fct CoPt
    crystallites form; they have {e tilted} easy axes (the paper's
    Figure 9 discussion), never restoring the perpendicular axis. *)

type axis = Perpendicular | In_plane | Tilted

val equal_axis : axis -> axis -> bool

val mixing_fraction :
  Constants.material -> temp_c:float -> duration:float -> float
(** Mixed interface fraction in [0,1] after [duration] seconds at
    [temp_c] °C. *)

val crystallised_fraction :
  Constants.material -> temp_c:float -> duration:float -> float
(** Fraction of the film transformed to fct CoPt crystallites. *)

val k_after_anneal : Constants.material -> temp_c:float -> float
(** Effective perpendicular anisotropy (J/m³) after the material's
    reference anneal protocol at [temp_c] — the Figure 7 ordinate. *)

val k_as_grown : Constants.material -> float
(** [k_after_anneal] of an unannealed film = [k_interface]. *)

val easy_axis_after_anneal : Constants.material -> temp_c:float -> axis
(** Easy-axis orientation after annealing: perpendicular while more than
    half the interface anisotropy survives; tilted when destroyed dots
    have crystallised to fct CoPt; in-plane otherwise (shape anisotropy
    of a flat dot wins). *)

val destruction_threshold_c : Constants.material -> float
(** Lowest annealing temperature (°C, to 1°) at which the reference
    anneal leaves less than half of the as-grown anisotropy — the
    minimum heating temperature the electrical write operation must
    reach.  For the paper's stack this is just above 600 °C
    ("heating temperatures over 500 °C will be required", Section 7). *)

val figure7_sweep :
  Constants.material -> temps_c:float list -> (float * float) list
(** [(temperature °C, K in kJ/m³)] series — the Figure 7 curve. *)
