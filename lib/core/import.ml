(* Aliases for lower-layer libraries; opened by every module in this
   library. *)
module Ints = Tce_util.Ints
module Listx = Tce_util.Listx
module Prng = Tce_util.Prng
module Tce_error = Tce_util.Tce_error
module Units = Tce_util.Units
module Index = Tce_index.Index
module Extents = Tce_index.Extents
module Aref = Tce_expr.Aref
module Formula = Tce_expr.Formula
module Sequence = Tce_expr.Sequence
module Tree = Tce_expr.Tree
module Sumexpr = Tce_expr.Sumexpr
module Grid = Tce_grid.Grid
module Dist = Tce_grid.Dist
module Params = Tce_netmodel.Params
module Rcost = Tce_netmodel.Rcost
module Topology = Tce_netmodel.Topology
module Overlap = Tce_netmodel.Overlap
module Eqs = Tce_memmodel.Eqs
module Memacct = Tce_memmodel.Memacct
module Contraction = Tce_cannon.Contraction
module Variant = Tce_cannon.Variant
module Schedule = Tce_cannon.Schedule
module Fusionset = Tce_fusion.Fusionset
module Obs = Tce_obs.Obs
module Opmin = Tce_opmin.Opmin
