(** Technology-scaling study: how the decoder conclusions move across
    lithography nodes and memory sizes.

    The paper fixes PL = 32 nm, PN = 10 nm and 16 kB.  A natural question
    for a designer is how the optimal code family and length shift as the
    lithography shrinks (contact pads and mesowires get cheaper relative
    to the sub-litho array) or the memory grows (decoder overhead
    amortises).  Every point re-runs the full design flow. *)

type node = {
  label : string;
  litho_pitch : float;  (** PL, nm *)
  nanowire_pitch : float;  (** PN, nm *)
}

val default_nodes : node list
(** 65/45/32/22-nm-class nodes with proportionally scaled overlay margins
    and a fixed 10 nm nanowire pitch (the spacer process is litho
    independent). *)

type point = {
  node : node;
  raw_bits : int;
  best_code : Nanodec_codes.Codebook.t;
  best_length : int;
  best_bit_area : float;
  crossbar_yield : float;
}

val sweep_nodes :
  ?ctx:Nanodec_parallel.Run_ctx.t ->
  ?raw_bits:int ->
  ?nodes:node list ->
  unit ->
  point list
(** Minimum-bit-area design per node (span [scaling.nodes]).  Nodes
    evaluate across the context's pool; the inner per-node sweep also
    receives the context, so while the grid is fanned out it runs
    inline on the submitting domain (counted as
    [pool.jobs.inline_nested] when the context has a sink).  Results are
    identical for every domain count.  The pool rides inside [?ctx]
    ([Run_ctx.with_ctx ~domains]). *)

val sweep_memory_sizes :
  ?ctx:Nanodec_parallel.Run_ctx.t ->
  ?sizes:int list ->
  unit ->
  point list
(** Minimum-bit-area design per raw density (default 4 kB – 256 kB) on
    the paper's 32 nm node (span [scaling.memory_sizes]). *)

val pp_point : Format.formatter -> point -> unit
