type t = {
  counters : (string * int) list;
  histograms : (string * Metrics_registry.hist_state) list;
  spans : Trace.event list;
  dropped_spans : int;
}

let empty =
  { counters = []; histograms = []; spans = []; dropped_spans = 0 }

let capture () =
  let counters, histograms = Metrics_registry.dump () in
  {
    counters;
    histograms;
    spans = Trace.events ();
    dropped_spans = Trace.dropped_count ();
  }

let counter t name = Option.value ~default:0 (List.assoc_opt name t.counters)
let histogram t name = List.assoc_opt name t.histograms

let summary t name =
  Option.map Metrics_registry.summary_of_state (histogram t name)
