(* Table-1 rows of the paper grid (seed 0, round 0) on the reference
   engine: (configuration, technique, max |err| ps, avg |err| ps,
   cases, failed). The table1 workload fails when a row drifts by more
   than 0.01 ps or a count changes. *)

let table1_seed0 =
  [
    ("Configuration I", "P1", 19.005, 2.220, 200, 0);
    ("Configuration I", "P2", 16.848, 3.883, 200, 0);
    ("Configuration I", "LSF3", 24.757, 4.572, 200, 0);
    ("Configuration I", "E4", 21.454, 7.651, 200, 0);
    ("Configuration I", "WLS5", 21.532, 3.893, 200, 0);
    ("Configuration I", "SGDP", 20.920, 4.811, 200, 0);
    ("Configuration II", "P1", 20.755, 1.669, 200, 0);
    ("Configuration II", "P2", 33.993, 4.477, 200, 0);
    ("Configuration II", "LSF3", 44.741, 4.780, 200, 0);
    ("Configuration II", "E4", 24.655, 5.622, 200, 0);
    ("Configuration II", "WLS5", 37.044, 2.470, 177, 23);
    ("Configuration II", "SGDP", 37.977, 3.145, 196, 4);
  ]
