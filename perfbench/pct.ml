(* Nearest-rank percentiles with ranks in whole per-mille, so "p90 of
   100 samples leaves exactly 10 beyond it" holds without float
   rounding. *)

let rank ~permille n = ((permille * n) + 999) / 1000

let beyond ~permille n = n - rank ~permille n

let value ~permille samples =
  match List.sort compare samples with
  | [] -> 0.0
  | sorted ->
    let a = Array.of_list sorted in
    let n = Array.length a in
    a.(max 0 (min (n - 1) (rank ~permille n - 1)))

let median samples = value ~permille:500 samples

let ladder = [ 999; 990; 900; 500 ]

let tail_permille n = List.find_opt (fun p -> beyond ~permille:p n >= 10) ladder
