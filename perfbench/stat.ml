(* Order statistics over timing samples. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* The highest percentile with at least ten samples beyond it: the
   eleventh-largest sample, at percentile [100 (n - 10) / n]. Returns the
   value, that percentile and the sample count; with ten samples or fewer
   there is no such percentile and the maximum stands in (percentile
   100). *)
let tail xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then (nan, 0.0, 0)
  else if n <= 10 then (a.(n - 1), 100.0, n)
  else (a.(n - 11), 100.0 *. float_of_int (n - 10) /. float_of_int n, n)

(* Samples grouped by cycle: the median over cycles of each cycle's
   median, or of each cycle's {!tail}. A burst of load on the host that
   lands on a few cycles moves neither. *)
let median_of_medians ls = median (List.map median ls)

let median_of_tails ls =
  median
    (List.map
       (fun l ->
         let v, _, _ = tail l in
         v)
       ls)
