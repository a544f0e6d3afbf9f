package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"time"

	"github.com/mahif/mahif/internal/core"
	"github.com/mahif/mahif/internal/persist"
	"github.com/mahif/mahif/internal/service"
)

// httpServer is mahifd's handler on a loopback listener plus the one
// keep-alive client that drives it in a closed loop.
type httpServer struct {
	srv    *service.Server
	hs     *http.Server
	served chan error
	base   string
	client *http.Client
	buf    bytes.Buffer
}

func startServer(engine *core.Engine, store *persist.Store) (*httpServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	srv := service.New(engine, service.Options{Sessions: 1, Store: store})
	h := &httpServer{
		srv:    srv,
		hs:     &http.Server{Handler: srv.Handler()},
		served: make(chan error, 1),
		base:   "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true}},
	}
	go func() { h.served <- h.hs.Serve(ln) }()
	return h, nil
}

// post sends one request and returns the response body, which stays
// valid until the next call.
func (h *httpServer) post(path string, body []byte) ([]byte, error) {
	resp, err := h.client.Post(h.base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	h.buf.Reset()
	if _, err := h.buf.ReadFrom(resp.Body); err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("POST %s: status %d: %.200s", path, resp.StatusCode, h.buf.String())
	}
	return h.buf.Bytes(), nil
}

// close shuts the server down and waits until it has stopped serving.
func (h *httpServer) close() error {
	if h == nil {
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := h.hs.Shutdown(ctx)
	h.client.CloseIdleConnections()
	if serr := <-h.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	return err
}

// sessionRatios records the cache hit ratios of a server's session.
func sessionRatios(l *layers, h *httpServer) {
	st := h.srv.SessionStats()[0]
	l.value("storage.snapshot_hit_ratio", ratio(float64(st.SnapshotHits), float64(st.SnapshotHits+st.SnapshotMisses)))
	l.value("core.query_hit_ratio", ratio(float64(st.QueryHits), float64(st.QueryHits+st.QueryMisses)))
}
