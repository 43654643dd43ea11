package obs

import (
	"net/http"
	"net/http/pprof"
)

// Register mounts the observability endpoints on an existing mux:
//
//	/debug/pprof  the full net/http/pprof suite
//	/metricsz     the registry snapshot as {"metrics": [...]}; with
//	              ?format=prometheus, the text exposition format instead
//
// csimd composes these with its own job API.
func Register(mux *http.ServeMux, r *Registry) {
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/metricsz", func(w http.ResponseWriter, req *http.Request) {
		if req.URL.Query().Get("format") == "prometheus" {
			w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
			_ = r.WritePrometheus(w)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_ = r.WriteJSON(w)
	})
}
