(** ASCII charts for reproducing the paper's figures in a terminal. *)

val bar_chart :
  ?unit_label:string ->
  title:string ->
  (string * float) list ->
  string
(** Horizontal bar chart, one row per (label, value); bars are scaled to
    the maximum value, which gets a bar of 50 characters. Values must be
    non-negative. *)

val grouped_bar_chart :
  ?unit_label:string ->
  title:string ->
  group_label:string ->
  (string * (string * float) list) list ->
  string
(** Figure 11/12 style: one block per group (e.g. rank count), one bar
    per series within the group. Bars share a single global scale so
    groups are comparable. *)
