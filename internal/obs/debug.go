package obs

import (
	"net"
	"net/http"
	"net/http/pprof"
)

// DebugServer is the live debugging endpoint behind the CLI's -debug-addr
// flag: its own registry in Prometheus text exposition at /metrics, and
// net/http/pprof under /debug/pprof/.
type DebugServer struct {
	ln  net.Listener
	srv *http.Server
}

// NewDebugServer binds addr (":0" picks a free port) and starts serving in
// the background. The registry may be nil (the exposition is then empty).
func NewDebugServer(addr string, reg *Registry) (*DebugServer, error) {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", ContentTypePrometheus)
		WritePrometheus(w, reg.Snapshot())
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := &DebugServer{ln: ln, srv: &http.Server{Handler: mux}}
	go s.srv.Serve(ln)
	return s, nil
}

// Addr returns the bound address (useful with ":0").
func (s *DebugServer) Addr() string { return s.ln.Addr().String() }

// Close stops the server; nil-safe.
func (s *DebugServer) Close() error {
	if s == nil {
		return nil
	}
	return s.srv.Close()
}
