(** Wrapper generation — the paper's tool-flow step 3.

    Every mode is assumed to implement the design's registered streaming
    interface (the case study's modules "communicate with each other using
    a simple streaming bus interface"): [clk], [rst], a 32-bit slave
    stream ([s_data]/[s_valid]/[s_ready]) and a 32-bit master stream
    ([m_data]/[m_valid]/[m_ready]).

    For each base partition (cluster) a {e variant} module chains its
    member modes in module order — the netlist implemented by that
    region's corresponding partial bitstream. A static wrapper
    instantiates the statically placed clusters side by side, and a top
    level stitches one initial variant per region together with the
    static wrapper and an ICAP-controller stub. *)

val mode_stub : Prdesign.Design.t -> Prdesign.Design.mode_id -> Ast.module_decl
(** Black-box stub for one mode, carrying its resource estimate as a
    comment; synthesis would replace it with the real netlist. *)

val variant_module :
  Prdesign.Design.t -> Cluster.Base_partition.t -> Ast.module_decl
(** The region-variant netlist for one cluster: member modes chained
    stream-wise in module-index order. *)

val variant_name : Prdesign.Design.t -> Cluster.Base_partition.t -> string

val static_wrapper : Prcore.Scheme.t -> Ast.module_decl option
(** [None] when the scheme promotes nothing to static. Static clusters
    get independent stream ports ([sN_*]/[mN_*]). *)

val top_level : ?initial:int -> Prcore.Scheme.t -> Ast.module_decl
(** Top level for the initial full bitstream: per region, the variant
    resident under configuration [initial] (default 0; idle regions get
    their first-listed cluster), plus the static wrapper and an
    [icap_controller] stub. *)

val emit_scheme : ?initial:int -> Prcore.Scheme.t -> (string * string) list
(** Every file the flow writes: one [(filename, verilog)] pair per mode
    stub, per region variant, the static wrapper (when present) and the
    top level. Filenames are unique and end in [.v]. *)
