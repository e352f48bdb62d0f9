package main

// Rung "http": POST /query and POST /update on Server.Handler() over real
// TCP on 127.0.0.1, one keep-alive connection per load client. It is also
// the boundary wire_repeat is timed at.
//
// Pins: Server.Handler and the wire forms of /query and /update.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"time"

	"gcplus"
)

type httpTarget struct {
	*serverTarget
	hs      *http.Server
	served  chan error
	url     [2]string // POST /query URL for sub, super
	update  string
	clients []*httpClient
}

// httpClient is one load client's connection and its reused read buffer.
type httpClient struct {
	c   *http.Client
	buf bytes.Buffer
}

func newHTTPTarget(in *inputs, opts gcplus.ServeOptions, nClients int) (*httpTarget, error) {
	st, err := newServerTarget(in, opts)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		st.Close()
		return nil, err
	}
	base := "http://" + ln.Addr().String()
	t := &httpTarget{
		serverTarget: st,
		hs:           &http.Server{Handler: st.srv.Handler()},
		served:       make(chan error, 1),
		url:          [2]string{base + "/query?kind=sub", base + "/query?kind=super"},
		update:       base + "/update",
	}
	go func() { t.served <- t.hs.Serve(ln) }()
	for i := 0; i < nClients; i++ {
		tr := &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1}
		t.clients = append(t.clients, &httpClient{c: &http.Client{Transport: tr}})
	}
	return t, nil
}

// statusError is a non-200 reply: 429 is an admission shed, 504 an expired
// deadline; every one counts as a failed request.
type statusError struct {
	code int
	body string
}

func (e *statusError) Error() string { return fmt.Sprintf("HTTP %d: %s", e.code, e.body) }

// post sends body and leaves the reply in the client's buffer.
func (hc *httpClient) post(url string, body []byte) error {
	resp, err := hc.c.Post(url, "text/plain", bytes.NewReader(body))
	if err != nil {
		return err
	}
	hc.buf.Reset()
	_, err = hc.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return &statusError{code: resp.StatusCode, body: hc.buf.String()}
	}
	return nil
}

func (t *httpTarget) Query(c int, r *request, full bool) (answer, error) {
	hc := t.clients[c]
	url := t.url[0]
	if r.super {
		url = t.url[1]
	}
	if err := hc.post(url, r.body); err != nil {
		return answer{}, err
	}
	if !full {
		return answer{}, nil
	}
	var qr struct {
		IDs            []int  `json:"ids"`
		Epoch          uint64 `json:"epoch"`
		Candidates     int    `json:"candidates"`
		SubIsoTests    int    `json:"subiso_tests"`
		TestsSaved     int    `json:"tests_saved"`
		ZeroTestShards int    `json:"zero_test_shards"`
	}
	if err := json.Unmarshal(hc.buf.Bytes(), &qr); err != nil {
		return answer{}, fmt.Errorf("query reply: %w", err)
	}
	return answer{
		ids: qr.IDs, epoch: qr.Epoch,
		tests: qr.SubIsoTests, saved: qr.TestsSaved, candidates: qr.Candidates,
		zeroTest: qr.ZeroTestShards == t.srv.Shards(),
	}, nil
}

func (t *httpTarget) Update(c int, b *batch, _ func(int, time.Duration)) (ack, error) {
	hc := t.clients[c]
	if err := hc.post(t.update, b.wire); err != nil {
		return ack{}, err
	}
	var ur struct {
		Epoch uint64 `json:"epoch"`
		Ops   []struct {
			ID    int    `json:"id"`
			Error string `json:"error"`
		} `json:"ops"`
	}
	if err := json.Unmarshal(hc.buf.Bytes(), &ur); err != nil {
		return ack{}, fmt.Errorf("update reply: %w", err)
	}
	a := ack{epoch: ur.Epoch, ids: make([]int, len(ur.Ops))}
	for i, op := range ur.Ops {
		if op.Error != "" {
			return a, &opError{op: i, err: op.Error}
		}
		a.ids[i] = op.ID
	}
	return a, nil
}

func (t *httpTarget) Close() error {
	for _, hc := range t.clients {
		hc.c.CloseIdleConnections()
	}
	err := t.hs.Close()
	<-t.served // the accept loop has returned
	if cerr := t.serverTarget.Close(); err == nil {
		err = cerr
	}
	return err
}

// rungHTTP replays over HTTP against a two-shard server on the given shard
// transport, one connection.
func rungHTTP(l *spanLog, c runConfig, in *inputs, transport, layer, tmp string) (*rungRun, error) {
	for i := 0; i < c.w.warmup+c.w.replay; i++ {
		in.req(i).render()
	}
	if c.w.stream == streamChurn {
		for i := 0; i <= (c.w.warmup+c.w.replay)/updateEvery; i++ {
			if b := &in.batches[i]; b.wire == nil {
				b.wire = renderBatch(b.ops)
			}
		}
	}
	t, err := newHTTPTarget(in, serverOptions(shards, transport, c.dataDir(tmp, layer)), 1)
	if err != nil {
		return nil, err
	}
	defer t.Close()
	return replay(l, c, in, t, replayOpts{layer: layer, n: c.w.replay})
}
