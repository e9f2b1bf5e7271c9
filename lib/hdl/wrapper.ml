module Design = Prdesign.Design
module Base_partition = Cluster.Base_partition
module Scheme = Prcore.Scheme
open Ast

let data_width = 32

let stream_ports prefix_in prefix_out =
  [ { port_name = prefix_in ^ "_data"; direction = Input; width = data_width };
    { port_name = prefix_in ^ "_valid"; direction = Input; width = 1 };
    { port_name = prefix_in ^ "_ready"; direction = Output; width = 1 };
    { port_name = prefix_out ^ "_data"; direction = Output; width = data_width };
    { port_name = prefix_out ^ "_valid"; direction = Output; width = 1 };
    { port_name = prefix_out ^ "_ready"; direction = Input; width = 1 } ]

let control_ports =
  [ { port_name = "clk"; direction = Input; width = 1 };
    { port_name = "rst"; direction = Input; width = 1 } ]

let mode_module_name design mode = mangle (Design.mode_name design mode)

let mode_stub design mode =
  let r = Design.mode_resources design mode in
  { name = mode_module_name design mode;
    ports = control_ports @ stream_ports "s" "m";
    items =
      [ Comment
          (Printf.sprintf
             "black box for %s: approx. %d CLBs, %d BRAMs, %d DSPs"
             (Design.mode_name design mode)
             r.Fpga.Resource.clb r.Fpga.Resource.bram r.Fpga.Resource.dsp);
        (* Stub behaviour: pass the stream through. *)
        Assign { lhs = "m_data"; rhs = Id "s_data" };
        Assign { lhs = "m_valid"; rhs = Id "s_valid" };
        Assign { lhs = "s_ready"; rhs = Id "m_ready" } ] }

let variant_name design (bp : Base_partition.t) =
  mangle
    ("variant_"
     ^ String.concat "_" (List.map (Design.mode_label design) bp.modes))

let variant_module design (bp : Base_partition.t) =
  (* Chain the cluster's modes in module-index order; base-partition mode
     lists are already ascending, which is module-major. *)
  let modes = bp.Base_partition.modes in
  let stage_wire i suffix width =
    Wire { wire_name = Printf.sprintf "stage%d_%s" i suffix; width }
  in
  let wires =
    List.concat
      (List.mapi
         (fun i _ ->
           [ stage_wire i "data" data_width;
             stage_wire i "valid" 1;
             stage_wire i "ready" 1 ])
         modes)
  in
  let n = List.length modes in
  let instances =
    List.mapi
      (fun i mode ->
        let src suffix =
          if i = 0 then Id ("s_" ^ suffix)
          else Id (Printf.sprintf "stage%d_%s" (i - 1) suffix)
        in
        let dst suffix = Id (Printf.sprintf "stage%d_%s" i suffix) in
        let downstream_ready =
          if i = n - 1 then Id "m_ready"
          else Id (Printf.sprintf "stage%d_ready" (i + 1))
        in
        (* stageN_ready is the ready signal *entering* stage N from
           upstream, produced by the stage itself. *)
        Instance
          { module_name = mode_module_name design mode;
            instance_name = mangle ("u_" ^ Design.mode_label design mode);
            connections =
              [ ("clk", Id "clk");
                ("rst", Id "rst");
                ("s_data", src "data");
                ("s_valid", src "valid");
                ("s_ready", dst "ready");
                ("m_data", dst "data");
                ("m_valid", dst "valid");
                ("m_ready", downstream_ready) ] })
      modes
  in
  (* Stage i's master side feeds stage i+1; the wrapper's slave ready is
     stage 0's, the master outputs are the last stage's. *)
  let last = n - 1 in
  let tail =
    [ Assign { lhs = "s_ready"; rhs = Id (Printf.sprintf "stage%d_ready" 0) };
      Assign { lhs = "m_data"; rhs = Id (Printf.sprintf "stage%d_data" last) };
      Assign { lhs = "m_valid"; rhs = Id (Printf.sprintf "stage%d_valid" last) } ]
  in
  { name = variant_name design bp;
    ports = control_ports @ stream_ports "s" "m";
    items =
      Comment
        (Printf.sprintf "region variant hosting %s (freq weight %d)"
           (Base_partition.label design bp)
           bp.Base_partition.freq)
      :: (wires @ instances @ tail) }

let static_wrapper (scheme : Scheme.t) =
  match Scheme.static_members scheme with
  | [] -> None
  | statics ->
    let design = scheme.Scheme.design in
    let ports =
      control_ports
      @ List.concat
          (List.mapi
             (fun i _ ->
               stream_ports (Printf.sprintf "s%d" i) (Printf.sprintf "m%d" i))
             statics)
    in
    let instances =
      List.mapi
        (fun i p ->
          let bp = scheme.Scheme.partitions.(p) in
          Instance
            { module_name = variant_name design bp;
              instance_name = Printf.sprintf "u_static%d" i;
              connections =
                [ ("clk", Id "clk");
                  ("rst", Id "rst");
                  ("s_data", Id (Printf.sprintf "s%d_data" i));
                  ("s_valid", Id (Printf.sprintf "s%d_valid" i));
                  ("s_ready", Id (Printf.sprintf "s%d_ready" i));
                  ("m_data", Id (Printf.sprintf "m%d_data" i));
                  ("m_valid", Id (Printf.sprintf "m%d_valid" i));
                  ("m_ready", Id (Printf.sprintf "m%d_ready" i)) ] })
        statics
    in
    Some
      { name = mangle (design.Design.name ^ "_static");
        ports;
        items =
          Comment "statically implemented clusters (never reconfigured)"
          :: instances }

let icap_stub =
  { name = "icap_controller";
    ports =
      control_ports
      @ [ { port_name = "start"; direction = Input; width = 1 };
          { port_name = "bitstream_id"; direction = Input; width = 16 };
          { port_name = "busy"; direction = Output; width = 1 } ];
    items =
      [ Comment "configuration manager + ICAP interface (see the paper's [15])";
        Assign { lhs = "busy"; rhs = Literal { width = 1; value = 0 } } ] }

let top_level ?(initial = 0) (scheme : Scheme.t) =
  let design = scheme.Scheme.design in
  let region_items r =
    let bp =
      scheme.Scheme.partitions.(Scheme.initial_resident scheme ~initial r)
    in
    let w suffix width =
      Wire { wire_name = Printf.sprintf "prr%d_%s" r suffix; width }
    in
    [ w "s_data" data_width; w "s_valid" 1; w "s_ready" 1;
      w "m_data" data_width; w "m_valid" 1; w "m_ready" 1;
      Instance
        { module_name = variant_name design bp;
          instance_name = Printf.sprintf "u_prr%d" r;
          connections =
            [ ("clk", Id "clk");
              ("rst", Id "rst");
              ("s_data", Id (Printf.sprintf "prr%d_s_data" r));
              ("s_valid", Id (Printf.sprintf "prr%d_s_valid" r));
              ("s_ready", Id (Printf.sprintf "prr%d_s_ready" r));
              ("m_data", Id (Printf.sprintf "prr%d_m_data" r));
              ("m_valid", Id (Printf.sprintf "prr%d_m_valid" r));
              ("m_ready", Id (Printf.sprintf "prr%d_m_ready" r)) ] } ]
  in
  let icap_items =
    [ Wire { wire_name = "icap_busy"; width = 1 };
      Instance
        { module_name = "icap_controller";
          instance_name = "u_icap";
          connections =
            [ ("clk", Id "clk");
              ("rst", Id "rst");
              ("start", Literal { width = 1; value = 0 });
              ("bitstream_id", Literal { width = 16; value = 0 });
              ("busy", Id "icap_busy") ] } ]
  in
  { name = mangle (design.Design.name ^ "_top");
    ports = control_ports;
    items =
      Comment
        (Printf.sprintf "initial configuration: %s"
           design.Design.configurations.(initial).Prdesign.Configuration.name)
      :: (List.concat
            (List.init scheme.Scheme.region_count region_items)
         @ icap_items) }

let emit_scheme ?initial (scheme : Scheme.t) =
  let design = scheme.Scheme.design in
  let used_modes =
    List.sort_uniq Int.compare
      (List.concat_map
         (fun (bp : Base_partition.t) -> bp.modes)
         (Array.to_list scheme.Scheme.partitions))
  in
  let file decl = (decl.name ^ ".v", to_verilog decl) in
  let stubs = List.map (fun m -> file (mode_stub design m)) used_modes in
  let variants =
    List.map
      (fun bp -> file (variant_module design bp))
      (Array.to_list scheme.Scheme.partitions)
  in
  let static = Option.to_list (Option.map file (static_wrapper scheme)) in
  let top = [ file icap_stub; file (top_level ?initial scheme) ] in
  (* Distinct clusters can never collide, but dedupe defensively on file
     name to keep the contract simple. *)
  let seen = Hashtbl.create 32 in
  List.filter
    (fun (name, _) ->
      if Hashtbl.mem seen name then false
      else begin
        Hashtbl.add seen name ();
        true
      end)
    (stubs @ variants @ static @ top)
