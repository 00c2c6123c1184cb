package server

import (
	"bytes"
	"context"
	"net/http"
	"testing"

	"tricheck/api"
	"tricheck/client"
)

// TestMemoTransferWarmsAFreshServer moves a warm memo cache from one
// server to a fresh one over GET /v1/memo/snapshot and POST
// /v1/memo/load: the receiver then serves the same sweep without a
// single verifier execution, and a corrupt or version-skewed snapshot is
// a 400 that leaves its cache as it was.
func TestMemoTransferWarmsAFreshServer(t *testing.T) {
	req := api.VerifyRequest{Family: "mp", ISA: "base", Variant: "curr"}
	srvA, tsA := newTestServer(t, Config{})
	verdicts, summary := drainStream(t, postVerify(t, tsA.URL, req))
	if summary == nil || summary.Done != summary.Total || len(verdicts) == 0 {
		t.Fatalf("warm-up sweep on A: %d verdicts, summary %+v", len(verdicts), summary)
	}

	ctx := context.Background()
	snap, err := client.New(tsA.URL).MemoSnapshot(ctx)
	if err != nil {
		t.Fatal(err)
	}
	srvB, tsB := newTestServer(t, Config{})
	cB := client.New(tsB.URL)
	if err := cB.MemoLoad(ctx, snap); err != nil {
		t.Fatal(err)
	}
	stA, _ := srvA.Engine().MemoStats()
	stB, _ := srvB.Engine().MemoStats()
	if stB.Len == 0 || stB.Len != stA.Len {
		t.Fatalf("B holds %d memo entries after the load, A holds %d", stB.Len, stA.Len)
	}

	repeat, summary := drainStream(t, postVerify(t, tsB.URL, req))
	if len(repeat) != len(verdicts) || summary == nil || summary.Cached != len(repeat) {
		t.Fatalf("repeat on B: %d verdicts (want %d), summary %+v", len(repeat), len(verdicts), summary)
	}
	for _, v := range repeat {
		if !v.Cached {
			t.Fatalf("repeat on B executed %s on %s instead of serving it from the loaded memo", v.Test, v.Stack)
		}
	}
	if n := srvB.Engine().Executions(); n != 0 {
		t.Fatalf("B ran the verifier %d times on a transferred memo", n)
	}

	for name, body := range map[string][]byte{
		"truncated snapshot":      snap[:len(snap)/2],
		"version-skewed snapshot": []byte(`{"version":1,"entries":{}}`),
	} {
		resp, err := http.Post(tsB.URL+"/v1/memo/load", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s → %d, want 400", name, resp.StatusCode)
		}
		if st, _ := srvB.Engine().MemoStats(); st.Len != stB.Len {
			t.Errorf("%s changed B's memo from %d to %d entries", name, stB.Len, st.Len)
		}
	}
}
