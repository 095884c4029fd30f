let boltzmann = 1.380649e-23
let mu0 = 1.25663706212e-6
let cu_k_alpha = 0.15406e-9
let celsius_to_kelvin c = c +. 273.15
let kelvin_to_celsius k = k -. 273.15

type material = {
  label : string;
  k_interface : float;
  ms : float;
  bilayer_period : float;
  n_bilayers : int;
  mix_activation_energy : float;
  mix_attempt_rate : float;
  cryst_activation_energy : float;
  cryst_attempt_rate : float;
  anneal_duration : float;
}

let ev = 1.602176634e-19

(* Calibration of the mixing kinetics (see DESIGN.md, E3).  The attempt
   rate is pinned at the atomic attempt frequency 1e13/s; the activation
   energy then follows from the Figure 7 anchors: for Ea = 2.95 eV the
   mixed fraction after the one-hour reference anneal is ~0.2% at 500 C
   (plateau), ~30% at 600 C (knee) and >99.9% at 700 C (collapse).  The
   same kinetics evaluated at pulse timescales make a 100 us write pulse
   need ~1550 C at the dot centre — consistent with the paper's remark
   that tip currents can even evaporate the material (Section 7). *)
let co_pt =
  {
    label = "Co/Pt multilayer (paper, Fig. 7)";
    k_interface = 80e3;
    ms = 400e3;
    bilayer_period = 1.1e-9;
    n_bilayers = 20;
    mix_activation_energy = 2.95 *. ev;
    mix_attempt_rate = 1e13;
    cryst_activation_energy = 3.2 *. ev;
    cryst_attempt_rate = 1e13;
    anneal_duration = 3600.;
  }

(* Same kinetics shifted so that the knee sits near 300 C: the
   lower-temperature material the paper's Section 9 wants developed
   (cf. Co/Pt interface mixing observed at 300 C by Spoerl & Weller). *)
let co_pt_low_temp =
  {
    co_pt with
    label = "engineered low-temperature stack";
    mix_activation_energy = 1.93 *. ev;
    cryst_activation_energy = 2.25 *. ev;
  }

type dot_geometry = { diameter : float; thickness : float; pitch : float }

let dot_200nm = { diameter = 100e-9; thickness = 22e-9; pitch = 200e-9 }
let dot_100nm = { diameter = 50e-9; thickness = 22e-9; pitch = 100e-9 }

let dot_volume g =
  let r = g.diameter /. 2. in
  Float.pi *. r *. r *. g.thickness

let areal_density_bits_per_cm2 g =
  let bits_per_m2 = 1. /. (g.pitch *. g.pitch) in
  bits_per_m2 /. 1e4
