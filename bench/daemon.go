package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"

	"hyper/internal/dist"
	"hyper/internal/server"
)

// daemon is hyperd as the benchmark runs it: server.New(...).Handler() on a
// real loopback listener, optionally with shard workers on listeners of
// their own in the same process (the distTestServer topology), and one
// keep-alive HTTP client shared by the client goroutines.
type daemon struct {
	srv     *server.Server
	base    string
	client  *http.Client
	servers []*http.Server
	done    []chan struct{}
}

func startDaemon(cfg server.Config, workers, clients int) (*daemon, error) {
	d := &daemon{
		srv: server.New(cfg),
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConns: clients + workers, MaxIdleConnsPerHost: clients + workers,
		}},
	}
	base, err := d.listen(d.srv.Handler())
	if err != nil {
		return nil, err
	}
	d.base = base
	for i := 0; i < workers; i++ {
		url, err := d.listen(dist.NewWorker(dist.WorkerConfig{}).Handler())
		if err != nil {
			d.close()
			return nil, err
		}
		reg := dist.RegisterRequest{ID: fmt.Sprintf("bw%d", i+1), URL: url}
		if err := d.post("/dist/v1/workers", reg, nil); err != nil {
			d.close()
			return nil, fmt.Errorf("registering worker %d: %w", i+1, err)
		}
	}
	return d, nil
}

// listen serves h on a fresh 127.0.0.1 port and returns its base URL.
func (d *daemon) listen(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	hs := &http.Server{Handler: h}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = hs.Serve(ln) // returns ErrServerClosed on close()
	}()
	d.servers = append(d.servers, hs)
	d.done = append(d.done, done)
	return "http://" + ln.Addr().String(), nil
}

// close stops every listener and waits for its serve loop, then drains the
// job pool.
func (d *daemon) close() {
	d.client.CloseIdleConnections()
	for i, hs := range d.servers {
		_ = hs.Close()
		<-d.done[i]
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_ = d.srv.Drain(ctx)
}

// do sends one request and decodes a 200 answer into dst; any other status
// is an error carrying the server's message.
func (d *daemon) do(method, path string, body []byte, dst any) error {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, d.base+path, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	payload, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, payload)
	}
	if dst != nil {
		if err := json.Unmarshal(payload, dst); err != nil {
			return fmt.Errorf("%s %s: decoding answer: %w", method, path, err)
		}
	}
	return nil
}

func (d *daemon) post(path string, body, dst any) error {
	return d.do(http.MethodPost, path, mustJSON(body), dst)
}

func (d *daemon) get(path string, dst any) error {
	return d.do(http.MethodGet, path, nil, dst)
}

// mustJSON marshals a request body the benchmark built itself.
func mustJSON(v any) []byte {
	raw, err := json.Marshal(v)
	if err != nil {
		panic(err) // plain structs of strings and numbers; cannot fail
	}
	return raw
}

// createSession creates the german session hyperd serves in the HTTP
// workloads: rows come from the registry builder (5,000 per unit of scale),
// estimation is seeded like the in-process sessions. It returns the row
// count the server reports, which the benchmark's own rebuild must match.
func (d *daemon) createSession(name string, rows int, seed int64) (int, error) {
	var info server.SessionInfo
	err := d.post("/v1/sessions", server.CreateSessionRequest{
		Name: name, Dataset: "german", Scale: float64(rows) / 5000, Seed: dataSeed(seed),
		Options: &server.SessionOptions{Seed: seed},
	}, &info)
	return info.Rows, err
}
