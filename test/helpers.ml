(* Shared assertion helpers for the suites. *)

let approx ?(eps = 1e-9) msg expected actual =
  if abs_float (expected -. actual) > eps then
    Alcotest.failf "%s: expected %.9g, got %.9g (eps %.2g)" msg expected actual
      eps

let approx_rel ?(rel = 1e-6) msg expected actual =
  let scale = Float.max (abs_float expected) 1e-30 in
  if abs_float (expected -. actual) > rel *. scale then
    Alcotest.failf "%s: expected %.9g, got %.9g (rel %.2g)" msg expected actual
      rel

let check_true msg b = Alcotest.(check bool) msg true b

(* Max-norm of [a*x - b]: how well [x] solves the system. *)
let residual_norm a x b =
  let ax = Numerics.Matrix.mul_vec a x in
  Array.fold_left Float.max 0.0
    (Array.mapi (fun i v -> abs_float (v -. b.(i))) ax)

(* One-shot [a x = b] through the library's workspace LU. *)
let dense_solve a b =
  let f = Numerics.Matrix.fact_create (Array.length b) in
  Numerics.Matrix.factor_into a f;
  let x = Array.copy b in
  Numerics.Matrix.solve_into f x;
  x

(* True when the samples are non-decreasing or non-increasing within
   [eps] (default 0, exact). *)
let is_monotone ?(eps = 0.0) w =
  let vs = Waveform.Wave.values w in
  let up = ref true and down = ref true in
  for i = 0 to Array.length vs - 2 do
    if vs.(i + 1) < vs.(i) -. eps then up := false;
    if vs.(i + 1) > vs.(i) +. eps then down := false
  done;
  !up || !down

(* A pool of [jobs] domains for the duration of [f], shut down on the
   way out (also on exception). *)
let with_pool ~jobs f =
  let pool = Runtime.Pool.create ~jobs () in
  Fun.protect ~finally:(fun () -> Runtime.Pool.shutdown pool) (fun () -> f pool)

(* The last sample of the named node's waveform. *)
let final_voltage res name =
  let vs = Waveform.Wave.values (Spice.Transient.probe res name) in
  vs.(Array.length vs - 1)

(* A device closure evaluated at terminal voltages, as the tuple
   (ids, dids/dvg, dids/dvd, dids/dvs). *)
let eval_fet (f : Spice.Circuit.mosfet_eval) ~vg ~vd ~vs =
  let out = Array.make 4 0.0 in
  f [| vg; vd; vs |] ~g:0 ~d:1 ~s:2 out 0;
  (out.(0), out.(1), out.(2), out.(3))

(* The DC operating point [Spice.Transient.run] starts from: the first
   sample of a two-step run, with [ic] as the Newton starting guesses. *)
let dc_point ?(ic = []) ckt =
  let config = { Spice.Transient.default_config with tstop = 2e-12 } in
  let res = Spice.Transient.run ~config ~ic ckt in
  fun name -> (Waveform.Wave.values (Spice.Transient.probe res name)).(0)

(* A client retry budget that ran out, for failure messages. *)
let retry_failure (e : Server.Client.retry_error) =
  Printf.sprintf "retry budget exhausted after %d attempts (last: %s)"
    e.attempts e.last

let case name f = Alcotest.test_case name `Quick f
let slow_case name f = Alcotest.test_case name `Slow f

(* Arm / disarm the solver's fault injector. *)
let arm_tran ?kind sel =
  Faultplan.arm Spice.Transient.Fault.injector { kind; sel }

let disarm_tran () = Faultplan.disarm Spice.Transient.Fault.injector

(* The fault-plan grammar, one table for every injector. *)
module Fault_grammar = struct
  let solver = Spice.Transient.Fault.[ ("nan", Corrupt); ("slow", Slow) ]

  let net =
    Server.Netfault.
      [ ("torn", Torn); ("stall", Stall); ("drop", Drop); ("corrupt", Corrupt) ]

  (* The cache has no kinds, so it accepts only bare selectors. *)
  let cache : (string * unit) list = []

  let prefixes = List.map fst solver @ List.map fst net

  (* Selectors every injector accepts, bare or behind any of its own
     kind prefixes. *)
  let selectors =
    Faultplan.
      [
        ("nth:0", Nth { n = 0 });
        ("nth:2", Nth { n = 2 });
        ("nth:3", Nth { n = 3 });
        ("nth:9", Nth { n = 9 });
        ("0.05", Fraction { rate = 0.05; seed = 0 });
        ("0.1", Fraction { rate = 0.1; seed = 0 });
        ("1.0", Fraction { rate = 1.0; seed = 0 });
        ("0.1@7", Fraction { rate = 0.1; seed = 7 });
        ("0.25@7", Fraction { rate = 0.25; seed = 7 });
        ("0.5@13", Fraction { rate = 0.5; seed = 13 });
      ]

  let bad_specs =
    [ ""; "bogus"; "bogus:0.5"; "nth:-1"; "nth:x"; "2.0"; "1.5"; "-0.1";
      "0.1@x"; "0.5@x" ]

  (* [kinds] is the injector's expected vocabulary. Every selector must
     parse bare and behind each of its prefixes; the bad specs, a bare
     prefix and every other injector's prefix must be rejected. *)
  let check (type k) name (inj : k Faultplan.t) (kinds : (string * k) list) =
    let expect spec want =
      match Faultplan.of_string inj spec with
      | Ok p -> check_true (Printf.sprintf "%s: %S parsed" name spec) (p = want)
      | Error msg -> Alcotest.failf "%s: spec %S rejected: %s" name spec msg
    in
    let reject spec =
      match Faultplan.of_string inj spec with
      | Ok _ -> Alcotest.failf "%s: spec %S accepted" name spec
      | Error msg -> check_true "error message given" (String.length msg > 0)
    in
    let foreign = List.filter (fun p -> not (List.mem_assoc p kinds)) prefixes in
    List.iter
      (fun (spec, sel) ->
        expect spec { kind = None; sel };
        List.iter
          (fun (prefix, k) ->
            expect (prefix ^ ":" ^ spec) { kind = Some k; sel })
          kinds;
        List.iter (fun prefix -> reject (prefix ^ ":" ^ spec)) foreign)
      selectors;
    List.iter reject bad_specs;
    List.iter (fun (prefix, _) -> reject (prefix ^ ":")) kinds
end

let qcase ?count name gen prop =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ?count ~name gen prop)

(* A deterministic pseudo-random float array generator for tests that
   need "arbitrary" data without QCheck plumbing. *)
let lcg_array seed n lo hi =
  let state = ref (seed land 0x3FFFFFFF) in
  Array.init n (fun _ ->
      state := ((!state * 1103515245) + 12345) land 0x3FFFFFFF;
      lo +. ((hi -. lo) *. (float_of_int !state /. float_of_int 0x3FFFFFFF)))
