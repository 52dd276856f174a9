package service

// The chaos suite for the durability layer: kill-and-restart recovery,
// torn journal tails, corrupt spill artifacts, journal-full refusal and
// panicking jobs — every test named TestChaos* so `make chaos` runs the
// whole suite under the race detector. The crash primitive is the
// fault-injection FS's crash switch: an in-process SIGKILL equivalent
// where abandoned goroutines keep running but nothing they do reaches
// the state directory anymore.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"xbarsec/api"
	"xbarsec/client"
	"xbarsec/internal/experiment/engine"
	"xbarsec/internal/faultinject"
	"xbarsec/internal/memo"
	"xbarsec/internal/oracle"
	"xbarsec/internal/report"
	"xbarsec/internal/rng"
	"xbarsec/internal/wal"
)

// durResult is the registered test experiments' deliverable: small,
// deterministic, JSON-stable — cheap enough that chaos tests can launch
// many jobs without the suite crawling.
type durResult struct {
	Name string  `json:"name"`
	Seed int64   `json:"seed"`
	Sum  float64 `json:"sum"`
}

func (r *durResult) Render() string {
	return fmt.Sprintf("%s seed=%d sum=%.17g", r.Name, r.Seed, r.Sum)
}
func (r *durResult) Tables() []*report.Table     { return nil }
func (r *durResult) WriteJSON(w io.Writer) error { return engine.WriteJSON(w, r) }

func durCompute(name string, seed int64) *durResult {
	src := rng.New(seed).Split(name)
	sum := 0.0
	for i := 0; i < 1000; i++ {
		sum += src.Float64()
	}
	return &durResult{Name: name, Seed: seed, Sum: sum}
}

// durBlockGate holds the blocking test experiment mid-run until closed;
// once closed, replays of the same experiment return immediately.
var durBlockGate = make(chan struct{})

var registerDurabilityExperiments = sync.OnceFunc(func() {
	engine.Register(engine.Experiment{
		Name:  "svc-test-quick",
		Title: "deterministic instant result (durability tests only)",
		Run: func(opts engine.Options) (engine.Result, error) {
			return durCompute("svc-test-quick", opts.Seed), nil
		},
	})
	engine.Register(engine.Experiment{
		Name:  "svc-test-block",
		Title: "blocks until the gate closes (durability tests only)",
		Run: func(opts engine.Options) (engine.Result, error) {
			<-durBlockGate
			return durCompute("svc-test-block", opts.Seed), nil
		},
	})
	engine.Register(engine.Experiment{
		Name:  "svc-test-panic",
		Title: "panics mid-run (durability tests only)",
		Run: func(opts engine.Options) (engine.Result, error) {
			panic("kaboom: injected test panic")
		},
	})
})

// TestChaosKillAndRestart is the acceptance test for the whole
// durability layer: launch jobs, kill the process mid-run (crash
// switch), restart on the same state dir, and require every job to
// reach done under its original id with results bit-identical to the
// uninterrupted run — completed ones served from spill, the in-flight
// one recomputed.
func TestChaosKillAndRestart(t *testing.T) {
	registerDurabilityExperiments()
	dir := t.TempDir()
	fsys := faultinject.NewFS(wal.OSFS{}, faultinject.FSConfig{Seed: 1})
	s1, rec, err := Open(Config{Seed: 11, Workers: 2, StateDir: dir, JournalFsync: true, FS: fsys})
	if err != nil {
		t.Fatal(err)
	}
	if rec.ReplayedJobs != 0 || rec.SpilledArtifacts != 0 || rec.TornJournalTail {
		t.Fatalf("fresh open recovery = %+v", rec)
	}

	specs := []ExperimentSpec{
		{Name: "ablate-trace", Seed: 29, Scale: 0.01}, // a real registry experiment
		{Name: "svc-test-quick", Seed: 7},
		{Name: "svc-test-block", Seed: 3},
	}
	// The first two jobs finish before the crash: their completion marks
	// and spilled artifacts are on disk.
	var jobs []*ExperimentJob
	want := map[string]*ExperimentResult{}
	for _, spec := range specs[:2] {
		job, err := s1.LaunchExperiment(spec)
		if err != nil {
			t.Fatal(err)
		}
		<-job.Done()
		_, res, jerr := job.Snapshot()
		if jerr != nil {
			t.Fatal(jerr)
		}
		jobs = append(jobs, job)
		want[job.ID()] = res
	}
	// The third is mid-run at the crash: its launch record is journaled,
	// its completion mark and artifact can no longer land.
	blocked, err := s1.LaunchExperiment(specs[2])
	if err != nil {
		t.Fatal(err)
	}
	jobs = append(jobs, blocked)
	fsys.Crash()
	close(durBlockGate)
	// The abandoned instance still finishes in memory — that is what a
	// real SIGKILL interrupts — but nothing it does reaches disk now.
	<-blocked.Done()
	if _, res, jerr := blocked.Snapshot(); jerr != nil {
		t.Fatal(jerr)
	} else {
		want[blocked.ID()] = res
	}
	s1.Close()

	// Restart on the same state dir with a healthy filesystem.
	s2, rec2, err := Open(Config{Seed: 11, Workers: 2, StateDir: dir, JournalFsync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if rec2.TornJournalTail {
		t.Error("clean journal reported torn")
	}
	if rec2.ReplayedJobs != 3 || rec2.Relaunched != 3 || rec2.FailedJobs != 0 {
		t.Fatalf("recovery = %+v, want 3 replayed / 3 relaunched / 0 failed", rec2)
	}
	if rec2.SpilledArtifacts != 2 {
		t.Fatalf("spill inventory at open = %d, want 2", rec2.SpilledArtifacts)
	}

	for _, orig := range jobs {
		job, err := s2.ExperimentJobByID(orig.ID())
		if err != nil {
			t.Fatalf("job %s lost across restart: %v", orig.ID(), err)
		}
		if job.Spec() != orig.Spec() {
			t.Fatalf("job %s spec changed across restart: %+v vs %+v", orig.ID(), job.Spec(), orig.Spec())
		}
		select {
		case <-job.Done():
		case <-time.After(2 * time.Minute):
			t.Fatalf("job %s never finished after restart", orig.ID())
		}
		_, res, jerr := job.Snapshot()
		if jerr != nil {
			t.Fatalf("job %s failed after restart: %v", orig.ID(), jerr)
		}
		w := want[orig.ID()]
		if res.Render != w.Render || !bytes.Equal(res.Result, w.Result) {
			t.Fatalf("job %s result differs from the uninterrupted run", orig.ID())
		}
	}

	// The completed jobs were served from spill, not recomputed.
	st := s2.Stats()
	if st.ReplayedJobs != 3 || st.FailedJobs != 0 {
		t.Fatalf("stats = %d replayed / %d failed, want 3 / 0", st.ReplayedJobs, st.FailedJobs)
	}
	if st.SpillHits < 2 {
		t.Fatalf("spill hits = %d, want >= 2 (completed jobs must be served from disk)", st.SpillHits)
	}
	if st.SpilledArtifacts != 3 {
		t.Fatalf("spilled artifacts = %d, want 3 (recomputed job written through)", st.SpilledArtifacts)
	}
	for _, id := range []string{jobs[0].ID(), jobs[1].ID()} {
		job, _ := s2.ExperimentJobByID(id)
		_, res, _ := job.Snapshot()
		if !res.Cached {
			t.Errorf("job %s not marked cached — recomputed instead of spill-served", id)
		}
	}
}

// TestChaosCampaignKillAndRestart pins restart safety for the
// synchronous job family: a campaign (and an extraction) whose launch
// record is journaled but whose completion mark never lands — the exact
// bytes a SIGKILL mid-compute leaves behind — is replayed at the next
// Open as soon as its victim registers, lands its artifact in spill
// bit-identical to an uninterrupted run, and disappears from the
// journal once its completion mark folds at the following compaction.
func TestChaosCampaignKillAndRestart(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Seed: 11, Workers: 2, StateDir: dir, JournalFsync: true}
	specA := CampaignSpec{Victim: "m", Mode: oracle.RawOutput, Seed: 3, Queries: 40, Lambda: 0.1}
	specB := CampaignSpec{Victim: "m", Mode: oracle.LabelOnly, Seed: 4, Queries: 40}
	specE := ExtractSpec{Victim: "m", Seed: 5}

	// Reference results from an uninterrupted memory-only run: campaigns
	// and extractions are pure functions of (spec, victim), so recovery
	// must reproduce these bit-for-bit.
	ref := newTestService(t, Config{Seed: 11, Workers: 2}, buildTestVictim(t, "m", 5))
	wantB, err := ref.RunCampaign(specB)
	if err != nil {
		t.Fatal(err)
	}
	wantE, err := ref.RunExtract(specE)
	if err != nil {
		t.Fatal(err)
	}

	s1, rec, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rec.ReplayedCampaigns != 0 || rec.ReplayedExtracts != 0 {
		t.Fatalf("fresh open recovery = %+v", rec)
	}
	if err := s1.Register(buildTestVictim(t, "m", 5)); err != nil {
		t.Fatal(err)
	}
	// Campaign A completes before the crash: launch + done journaled,
	// artifact spilled.
	if _, err := s1.RunCampaign(specA); err != nil {
		t.Fatal(err)
	}
	// The crash signature for B and E: a launch record with no completion
	// mark (RunCampaign journals the defaulted spec, so mirror that).
	bd := specB.withDefaults()
	if err := s1.journalLaunch(journalRecord{Op: opLaunch, ID: bd.key(), Campaign: &bd}); err != nil {
		t.Fatal(err)
	}
	ed := extractDefaults(specE)
	if err := s1.journalLaunch(journalRecord{Op: opLaunch, ID: extractKey(ed), Extract: &ed}); err != nil {
		t.Fatal(err)
	}
	s1.Close()

	s2, rec2, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rec2.ReplayedCampaigns != 1 || rec2.ReplayedExtracts != 1 {
		t.Fatalf("recovery = %+v, want 1 replayed campaign and 1 replayed extract", rec2)
	}
	// The replays wait for their victim; registering it triggers the
	// drain, which recomputes both jobs and writes them through to spill
	// (A's artifact + B + E = 3).
	if err := s2.Register(buildTestVictim(t, "m", 5)); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Minute)
	for s2.Stats().SpilledArtifacts < 3 {
		if time.Now().After(deadline) {
			t.Fatalf("replayed jobs never reached spill: %d artifacts", s2.Stats().SpilledArtifacts)
		}
		time.Sleep(10 * time.Millisecond)
	}
	// The crashed client's retry is served from the artifact store.
	resB, err := s2.RunCampaign(specB)
	if err != nil {
		t.Fatal(err)
	}
	if !resB.Cached {
		t.Error("recovered campaign recomputed instead of served from the artifact store")
	}
	if resB.CleanAccuracy != wantB.CleanAccuracy || resB.SurrogateAccuracy != wantB.SurrogateAccuracy ||
		resB.AdvAccuracy != wantB.AdvAccuracy || resB.QueriesCharged != wantB.QueriesCharged {
		t.Fatalf("recovered campaign differs from the uninterrupted run:\n%+v\nvs\n%+v", resB, wantB)
	}
	resE, err := s2.RunExtract(specE)
	if err != nil {
		t.Fatal(err)
	}
	if !resE.Cached {
		t.Error("recovered extraction recomputed instead of served from the artifact store")
	}
	if !reflect.DeepEqual(resE.Signals, wantE.Signals) || !reflect.DeepEqual(resE.Norms, wantE.Norms) {
		t.Fatal("recovered extraction signals differ from the uninterrupted run")
	}
	s2.Close()

	// The completion marks fold at the next compaction: nothing left to
	// replay.
	s3, rec3, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	if rec3.ReplayedCampaigns != 0 || rec3.ReplayedExtracts != 0 {
		t.Fatalf("third open still replays sync jobs: %+v", rec3)
	}
}

// TestChaosTornJournalTail feeds Open a journal with a crash signature
// — valid records then half a frame — and requires the intact records
// recovered, the tear reported, and id assignment to continue past the
// replayed jobs.
func TestChaosTornJournalTail(t *testing.T) {
	registerDurabilityExperiments()
	dir := t.TempDir()
	path := filepath.Join(dir, "jobs.wal")
	w, err := wal.Create(wal.OSFS{}, path, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	spec := ExperimentSpec{Name: "svc-test-quick", Seed: 21, Scale: 1}
	for _, rec := range []journalRecord{
		{Op: opLaunch, ID: "job-1", Spec: &spec},
		{Op: opFailed, ID: "job-1", Err: "boom before restart"},
	} {
		b, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Append(b); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// A crash mid-append: three bytes of a frame header at the tail.
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0xde, 0xad, 0xbe}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s, rec, err := Open(Config{StateDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if !rec.TornJournalTail {
		t.Error("torn tail not reported")
	}
	if rec.ReplayedJobs != 1 || rec.FailedJobs != 1 || rec.Relaunched != 0 {
		t.Fatalf("recovery = %+v, want 1 replayed / 1 failed / 0 relaunched", rec)
	}
	job, err := s.ExperimentJobByID("job-1")
	if err != nil {
		t.Fatal(err)
	}
	status, _, jerr := job.Snapshot()
	if status != JobFailed || jerr == nil || !strings.Contains(jerr.Error(), "boom before restart") {
		t.Fatalf("restored job = %v / %v, want failed with the journaled message", status, jerr)
	}
	// Fresh launches continue past the replayed id.
	job2, err := s.LaunchExperiment(ExperimentSpec{Name: "svc-test-quick", Seed: 22})
	if err != nil {
		t.Fatal(err)
	}
	if job2.ID() != "job-2" {
		t.Fatalf("post-recovery id = %s, want job-2", job2.ID())
	}
	<-job2.Done()
}

// TestChaosCorruptSpill flips a byte in a spilled artifact and requires
// the store to quarantine it and the service to recompute — a corrupt
// file must never surface as a result, silently wrong or otherwise.
func TestChaosCorruptSpill(t *testing.T) {
	registerDurabilityExperiments()
	dir := t.TempDir()
	spec := ExperimentSpec{Name: "svc-test-quick", Seed: 40}
	s1, _, err := Open(Config{StateDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	res1, err := s1.RunExperiment(spec)
	if err != nil {
		t.Fatal(err)
	}
	s1.Close()

	spillDir := filepath.Join(dir, "spill")
	ents, err := os.ReadDir(spillDir)
	if err != nil {
		t.Fatal(err)
	}
	corrupted := 0
	for _, e := range ents {
		if strings.Contains(e.Name(), ".") {
			continue
		}
		p := filepath.Join(spillDir, e.Name())
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		data[len(data)-1] ^= 0xff
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
		corrupted++
	}
	if corrupted != 1 {
		t.Fatalf("corrupted %d artifacts, want exactly 1", corrupted)
	}

	s2, rec, err := Open(Config{StateDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if rec.SpilledArtifacts != 1 {
		t.Fatalf("inventory = %d, want 1 (corruption is only detected on read)", rec.SpilledArtifacts)
	}
	res2, err := s2.RunExperiment(spec)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Cached {
		t.Error("corrupt artifact served as cached")
	}
	if res2.Render != res1.Render || !bytes.Equal(res2.Result, res1.Result) {
		t.Fatal("recomputed result differs from the original")
	}
	// The corrupt file is quarantined aside; the recompute wrote a fresh
	// good artifact at the live name.
	ents, err = os.ReadDir(spillDir)
	if err != nil {
		t.Fatal(err)
	}
	live, quarantined := 0, 0
	for _, e := range ents {
		switch {
		case strings.HasSuffix(e.Name(), ".quarantine"):
			quarantined++
		case !strings.Contains(e.Name(), "."):
			live++
		}
	}
	if live != 1 || quarantined != 1 {
		t.Fatalf("spill dir = %d live / %d quarantined, want 1 / 1", live, quarantined)
	}
	if st := s2.Stats(); st.SpilledArtifacts != 1 {
		t.Fatalf("stats count %d spilled artifacts, want 1", st.SpilledArtifacts)
	}
}

// TestChaosJournalFull pins graceful degradation: when the journal
// cannot record another launch, the server refuses with a typed
// "unavailable" plus Retry-After — over the API and on the wire — and
// rolls the job record back instead of accepting work without restart
// safety.
func TestChaosJournalFull(t *testing.T) {
	registerDurabilityExperiments()
	dir := t.TempDir()
	s, _, err := Open(Config{StateDir: dir, MaxJournalBytes: 220})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	launched := 0
	var launchErr error
	for seed := int64(1); seed <= 50; seed++ {
		job, err := s.LaunchExperiment(ExperimentSpec{Name: "svc-test-quick", Seed: seed})
		if err != nil {
			launchErr = err
			break
		}
		launched++
		<-job.Done()
	}
	if launchErr == nil {
		t.Fatal("50 launches fit in a 220-byte journal")
	}
	if launched == 0 {
		t.Fatal("the first launch must fit")
	}
	if !errors.Is(launchErr, ErrUnavailable) {
		t.Fatalf("refusal = %v, want ErrUnavailable", launchErr)
	}
	var ue *UnavailableError
	if !errors.As(launchErr, &ue) || ue.RetryAfter != 30 {
		t.Fatalf("refusal = %v, want UnavailableError with Retry-After 30", launchErr)
	}
	if e := apiError(launchErr); e.Code != api.CodeUnavailable || e.RetryAfter != 30 {
		t.Fatalf("envelope = %+v, want code unavailable, retry_after 30", e)
	}
	if api.CodeUnavailable.HTTPStatus() != http.StatusServiceUnavailable {
		t.Fatalf("unavailable maps to %d, want 503", api.CodeUnavailable.HTTPStatus())
	}
	// The refused job's record was rolled back: the table holds exactly
	// the accepted jobs.
	if got := s.jobs.size(); got != launched {
		t.Fatalf("job table holds %d entries, want %d", got, launched)
	}

	// End to end: the wire response is a 503 with the Retry-After header
	// and the typed envelope.
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	body, _ := json.Marshal(api.ExperimentSpec{Name: "svc-test-quick", Seed: 999})
	resp, err := http.Post(ts.URL+api.PathPrefix+"/experiments", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got != "30" {
		t.Fatalf("Retry-After header = %q, want \"30\"", got)
	}
	var e api.Error
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil || e.Code != api.CodeUnavailable || e.RetryAfter != 30 {
		t.Fatalf("wire envelope = %+v, %v", e, err)
	}
}

// TestChaosPanickingJob pins the stuck-job fix: a panic inside an
// experiment marks the job failed with a typed internal error (never
// running forever with its done channel unclosed), counts in stats, and
// survives a restart as failed rather than being re-launched into the
// same panic.
func TestChaosPanickingJob(t *testing.T) {
	registerDurabilityExperiments()
	dir := t.TempDir()
	s1, _, err := Open(Config{StateDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	job, err := s1.LaunchExperiment(ExperimentSpec{Name: "svc-test-panic", Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-job.Done():
	case <-time.After(time.Minute):
		t.Fatal("panicking job stuck running — done channel never closed")
	}
	status, res, jerr := job.Snapshot()
	if status != JobFailed || res != nil || jerr == nil {
		t.Fatalf("job = %v / %v / %v, want failed with an error", status, res, jerr)
	}
	var pe *memo.PanicError
	if !errors.As(jerr, &pe) || !strings.Contains(fmt.Sprint(pe.Value), "injected test panic") {
		t.Fatalf("err = %v, want a typed memo.PanicError carrying the panic value", jerr)
	}
	// The wire shape a GET jobs/{id} poller sees.
	if e := apiError(jerr); e.Code != api.CodeInternal || e.Message != "experiment job panicked" ||
		!strings.Contains(e.Detail, "injected test panic") {
		t.Fatalf("envelope = %+v", e)
	}
	if got := s1.Stats().FailedJobs; got != 1 {
		t.Fatalf("failed_jobs = %d, want 1", got)
	}
	s1.Close()

	// The failure is durable: restart restores the job failed instead of
	// re-launching it into the same panic.
	s2, rec, err := Open(Config{StateDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if rec.ReplayedJobs != 1 || rec.FailedJobs != 1 || rec.Relaunched != 0 {
		t.Fatalf("recovery = %+v, want the job restored failed, not relaunched", rec)
	}
	job2, err := s2.ExperimentJobByID(job.ID())
	if err != nil {
		t.Fatal(err)
	}
	if status, _, jerr := job2.Snapshot(); status != JobFailed || jerr == nil {
		t.Fatalf("restored job = %v / %v, want failed", status, jerr)
	}
	if got := s2.Stats().FailedJobs; got != 1 {
		t.Fatalf("failed_jobs after restart = %d, want 1", got)
	}
}

// TestChaosReplayParentJournal pins the journal and spill formats: the
// state dir under testdata/journal-v2 was written by the protocol-v2.3
// server and must keep replaying. It holds three experiment jobs (job-1
// done, job-2 failed by a panic, job-3 launched but never finished), a
// finished campaign whose artifact is spilled, and one unfinished
// campaign and extraction.
func TestChaosReplayParentJournal(t *testing.T) {
	registerDurabilityExperiments()
	const fixture = "testdata/journal-v2"
	dir := t.TempDir()
	if err := os.CopyFS(dir, os.DirFS(fixture)); err != nil {
		t.Fatal(err)
	}
	// committed reads an artifact's payload exactly as the fixture
	// stores it: the spill file minus its 32-byte sha256 prefix.
	committed := func(key string) []byte {
		t.Helper()
		b, err := os.ReadFile(filepath.Join(fixture, "spill", memo.Addr(key)))
		if err != nil {
			t.Fatal(err)
		}
		return b[32:]
	}
	s, rec, err := Open(Config{Seed: 11, Workers: 2, StateDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	want := Recovery{ReplayedJobs: 3, Relaunched: 2, FailedJobs: 1,
		ReplayedCampaigns: 1, ReplayedExtracts: 1, SpilledArtifacts: 2}
	if *rec != want {
		t.Fatalf("recovery = %+v, want %+v", *rec, want)
	}

	for _, tc := range []struct {
		id     string
		status JobStatus
		cached bool
	}{
		{"job-1", JobDone, true},
		{"job-2", JobFailed, false},
		{"job-3", JobDone, false},
	} {
		job, err := s.ExperimentJobByID(tc.id)
		if err != nil {
			t.Fatalf("%s not restored: %v", tc.id, err)
		}
		select {
		case <-job.Done():
		case <-time.After(time.Minute):
			t.Fatalf("%s never finished after replay", tc.id)
		}
		status, res, jerr := job.Snapshot()
		if status != tc.status {
			t.Fatalf("%s status = %v (%v), want %v", tc.id, status, jerr, tc.status)
		}
		if res != nil && res.Cached != tc.cached {
			t.Errorf("%s cached = %v, want %v", tc.id, res.Cached, tc.cached)
		}
	}
	// The done job is served from the committed artifact, byte for byte.
	job, _ := s.ExperimentJobByID("job-1")
	_, res, _ := job.Snapshot()
	got := *res
	got.Cached = false
	payload, err := json.Marshal(&got)
	if err != nil {
		t.Fatal(err)
	}
	if key := specKey(job.Spec()); !bytes.Equal(payload, committed(key)) {
		t.Fatalf("job-1 served %s, committed artifact is %s", payload, committed(key))
	}

	// Registering the victim drains the two unfinished sync jobs into
	// spill (2 committed + job-3 + campaign + extract). The finished
	// campaign's committed artifact was computed before the campaign
	// results version was bumped, so it is recomputed, not served.
	if err := s.Register(buildTestVictim(t, "m", 5)); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Minute)
	for s.Stats().SpilledArtifacts < 5 {
		if time.Now().After(deadline) {
			t.Fatalf("replayed sync jobs never reached spill: %d artifacts", s.Stats().SpilledArtifacts)
		}
		time.Sleep(10 * time.Millisecond)
	}
	spec := CampaignSpec{Victim: "m", Mode: oracle.RawOutput, Seed: 3, Queries: 40, Lambda: 0.1}
	camp, err := s.RunCampaign(spec)
	if err != nil {
		t.Fatal(err)
	}
	if camp.Cached {
		t.Fatal("finished campaign served from an artifact spilled at an older results version")
	}
}

// TestChaosResultsVersionBump pins what a results-version bump does to a
// state dir spilled by the previous version: campaign and fig5
// artifacts filed under their unversioned (v0) keys are recomputed, not
// served, and land under the current keys; a campaign launch journaled
// under its v0 key replays exactly once. So does a launch whose crash
// fell between its spill and its completion mark, which the replay
// serves from spill.
func TestChaosResultsVersionBump(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Seed: 11, Workers: 2, StateDir: dir, JournalFsync: true}
	spilled := CampaignSpec{Victim: "m", Mode: oracle.RawOutput, Seed: 3, Queries: 40, Lambda: 0.1}.withDefaults()
	journaled := CampaignSpec{Victim: "m", Mode: oracle.RawOutput, Seed: 6, Queries: 40, Lambda: 0.05}.withDefaults()
	unmarked := CampaignSpec{Victim: "m", Mode: oracle.LabelOnly, Seed: 7, Queries: 40}.withDefaults()
	fig5 := specDefaults(ExperimentSpec{Name: "fig5", Seed: 31, Scale: 0.01,
		Options: &api.ExperimentOptions{Fig5: &api.Fig5Options{
			Queries: []int{5}, Lambdas: []float64{0.01}, SurrogateEpochs: 1,
		}}})
	const rv = "|rv:1"
	v0 := func(key string) string {
		t.Helper()
		if !strings.Contains(key, rv) {
			t.Fatalf("key %q carries no %s", key, rv)
		}
		return strings.Replace(key, rv, "", 1)
	}

	// The v0 state dir: stale artifacts under the v0 keys — deliberately
	// wrong numbers, so serving one cannot pass for a recompute — and an
	// unfinished v0 campaign launch.
	spill, err := memo.OpenSpill(wal.OSFS{}, filepath.Join(dir, "spill"))
	if err != nil {
		t.Fatal(err)
	}
	stale := map[string]any{
		v0(spilled.key()): &CampaignResult{Victim: "m", Seed: 3, Queries: 40, AdvAccuracy: -1},
		v0(specKey(fig5)): &ExperimentResult{Name: "fig5", Seed: 31, Scale: 0.01, Render: "stale", Result: json.RawMessage(`{}`)},
		unmarked.key():    &CampaignResult{Victim: "m", Seed: 7, Queries: 40},
	}
	for key, val := range stale {
		payload, err := json.Marshal(val)
		if err != nil {
			t.Fatal(err)
		}
		if err := spill.Put(key, codeIdentity(), payload); err != nil {
			t.Fatal(err)
		}
	}
	w, err := wal.Create(wal.OSFS{}, filepath.Join(dir, "jobs.wal"), wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Replay is sequential in journal order, so once the v0 launch's
	// artifact is on disk the unmarked launch has been replayed and
	// marked.
	for _, r := range []journalRecord{
		{Op: opLaunch, ID: unmarked.key(), Campaign: &unmarked},
		{Op: opLaunch, ID: v0(journaled.key()), Campaign: &journaled},
	} {
		b, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Append(b); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	s, rec, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rec.ReplayedCampaigns != 2 || rec.SpilledArtifacts != 3 {
		t.Fatalf("recovery = %+v, want 2 replayed campaigns and 3 spilled artifacts", rec)
	}
	if err := s.Register(buildTestVictim(t, "m", 5)); err != nil {
		t.Fatal(err)
	}
	onDisk := func(key string) bool {
		_, err := os.Stat(filepath.Join(dir, "spill", memo.Addr(key)))
		return err == nil
	}
	deadline := time.Now().Add(2 * time.Minute)
	for !onDisk(journaled.key()) {
		if time.Now().After(deadline) {
			t.Fatal("replayed v0 campaign never spilled under its current key")
		}
		time.Sleep(10 * time.Millisecond)
	}

	ref := newTestService(t, Config{Seed: 11, Workers: 2}, buildTestVictim(t, "m", 5))
	want, err := ref.RunCampaign(spilled)
	if err != nil {
		t.Fatal(err)
	}
	camp, err := s.RunCampaign(spilled)
	if err != nil {
		t.Fatal(err)
	}
	if camp.Cached || *camp != *want {
		t.Fatalf("campaign after the bump = %+v, want the recompute %+v", camp, want)
	}
	exp, err := s.RunExperiment(fig5)
	if err != nil {
		t.Fatal(err)
	}
	if exp.Cached || exp.Render == "stale" {
		t.Fatalf("fig5 after the bump served the v0 artifact (cached %v)", exp.Cached)
	}
	for _, key := range []string{spilled.key(), specKey(fig5)} {
		if !onDisk(key) {
			t.Errorf("recomputed artifact not spilled under %q", key)
		}
	}
	s.Close()

	// Both replayed launches were marked finished: the next restart has
	// nothing to replay.
	s2, rec2, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if rec2.ReplayedCampaigns != 0 {
		t.Fatalf("campaign launches replayed again: %+v", rec2)
	}
}

// artifactFaultFS fails, once, the nth mutating operation — a
// write-mode OpenFile, a Write, a Sync or a Rename — on a file directly
// under a state dir's spill/ or prov/ directory: the writes that
// persist an artifact and its provenance.
type artifactFaultFS struct {
	wal.FS
	mu     sync.Mutex
	n      int
	failed string // the operation that failed, once it has
}

func (f *artifactFaultFS) fault(op, path string) error {
	if d := filepath.Base(filepath.Dir(path)); d != "spill" && d != "prov" {
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.n--; f.n != 0 {
		return nil
	}
	f.failed = op + " " + filepath.Base(filepath.Dir(path)) + "/" + filepath.Base(path)
	return fmt.Errorf("injected %s failure", op)
}

func (f *artifactFaultFS) failedOp() string {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.failed
}

func (f *artifactFaultFS) OpenFile(name string, flag int, perm os.FileMode) (wal.File, error) {
	if flag&(os.O_WRONLY|os.O_RDWR) == 0 {
		return f.FS.OpenFile(name, flag, perm)
	}
	if err := f.fault("create", name); err != nil {
		return nil, err
	}
	file, err := f.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &faultFile{File: file, fs: f, name: name}, nil
}

func (f *artifactFaultFS) Rename(oldpath, newpath string) error {
	if err := f.fault("rename", newpath); err != nil {
		return err
	}
	return f.FS.Rename(oldpath, newpath)
}

type faultFile struct {
	wal.File
	fs   *artifactFaultFS
	name string
}

func (f *faultFile) Write(p []byte) (int, error) {
	if err := f.fs.fault("write", f.name); err != nil {
		return 0, err
	}
	return f.File.Write(p)
}

func (f *faultFile) Sync() error {
	if err := f.fs.fault("sync", f.name); err != nil {
		return err
	}
	return f.File.Sync()
}

// TestChaosSpillWriteFault pins the crash window a one-file artifact
// record closes. Whichever single write of a spill fails — create,
// write, sync or rename, of any file the spill makes — the artifact
// after a restart is either absent and recomputed, or servable with a
// proof the client-side verifier accepts. It is never present but
// unprovable, which is what a spill split across a payload file and a
// provenance file left behind when the second file's write failed.
func TestChaosSpillWriteFault(t *testing.T) {
	registerDurabilityExperiments()
	spec := ExperimentSpec{Name: "svc-test-quick", Seed: 42}
	id := memo.Addr(specKey(specDefaults(spec)))
	// Eight operations cover two tmp+rename writes; one write needs four.
	for n := 1; n <= 8; n++ {
		t.Run(fmt.Sprintf("op-%d", n), func(t *testing.T) {
			dir := t.TempDir()
			fsys := &artifactFaultFS{FS: wal.OSFS{}, n: n}
			s1, _, err := Open(Config{Seed: 11, Workers: 2, StateDir: dir, FS: fsys})
			if err != nil {
				t.Fatal(err)
			}
			want, err := s1.RunExperiment(spec)
			if err != nil {
				t.Fatal(err)
			}
			s1.Close()

			s2, _, err := Open(Config{Seed: 11, Workers: 2, StateDir: dir})
			if err != nil {
				t.Fatal(err)
			}
			defer s2.Close()
			ts := httptest.NewServer(s2.Handler())
			defer ts.Close()
			c, err := client.New(ts.URL)
			if err != nil {
				t.Fatal(err)
			}
			_, _, verr := c.VerifiedArtifact(context.Background(), id)
			if verr == nil {
				return // servable, and the proof binds
			}
			if api.CodeOf(verr) != api.CodeUnknownArtifact {
				t.Fatalf("artifact fetch after a failed %q = %v, want served or unknown_artifact", fsys.failedOp(), verr)
			}
			res, err := s2.RunExperiment(spec)
			if err != nil {
				t.Fatal(err)
			}
			if res.Cached {
				t.Fatalf("after a failed %q the artifact is served from spill but cannot be proven by address", fsys.failedOp())
			}
			if res.Render != want.Render || !bytes.Equal(res.Result, want.Result) {
				t.Fatal("recomputed result differs from the first run")
			}
		})
	}
}

// TestChaosReplayParentProvenance pins the migration from the two-file
// artifact record. The state dir under testdata/prov-v2 was written by
// the protocol-v2.3 server, whose spill files held only
// [sha256][payload] and whose provenance chains lived beside them in
// prov/<addr>.json; it holds one spilled experiment artifact and its
// record. Open folds the record into the spill file: the artifact is
// then served by address, byte-identical, under exactly the committed
// proof, locally and over the wire; prov/ is gone; and the record count
// is what it was. The fold is idempotent — a record left behind by a
// crash after its fold landed is simply removed — and a record that
// does not verify is dropped without making its artifact provable.
func TestChaosReplayParentProvenance(t *testing.T) {
	registerDurabilityExperiments()
	const fixture = "testdata/prov-v2"
	spec := ExperimentSpec{Name: "svc-test-quick", Seed: 23}
	key := specKey(specDefaults(spec))
	id := memo.Addr(key)
	spilled, err := os.ReadFile(filepath.Join(fixture, "spill", id))
	if err != nil {
		t.Fatal(err)
	}
	payload := spilled[32:]
	recordPath := filepath.Join("prov", id+".json")
	rawRecord, err := os.ReadFile(filepath.Join(fixture, recordPath))
	if err != nil {
		t.Fatal(err)
	}
	var committed api.ArtifactProof
	if err := json.Unmarshal(rawRecord, &committed); err != nil {
		t.Fatal(err)
	}
	if committed.SpecKey != key {
		t.Fatalf("fixture record is for %q, want %q", committed.SpecKey, key)
	}
	open := func(t *testing.T, dir string) *Service {
		t.Helper()
		s, _, err := Open(Config{Seed: 11, Workers: 2, StateDir: dir})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := os.Stat(filepath.Join(dir, "prov")); !errors.Is(err, fs.ErrNotExist) {
			t.Fatalf("prov/ survived Open: %v", err)
		}
		return s
	}
	copyFixture := func(t *testing.T) string {
		t.Helper()
		dir := t.TempDir()
		if err := os.CopyFS(dir, os.DirFS(fixture)); err != nil {
			t.Fatal(err)
		}
		return dir
	}
	// served checks the artifact by address, in process and through the
	// SDK's verifying fetch, and by key.
	served := func(t *testing.T, s *Service) {
		t.Helper()
		if got := s.Stats().ProvenanceRecords; got != 1 {
			t.Fatalf("provenance_records = %d, want the 1 the fixture held", got)
		}
		got, proof, err := s.artifactAt(id)
		if err != nil {
			t.Fatalf("migrated artifact not servable: %v", err)
		}
		if !bytes.Equal(got, payload) || proof != committed {
			t.Fatalf("served %s under %+v, want the committed payload and proof", got, proof)
		}
		if err := proof.Verify(got); err != nil {
			t.Fatalf("served proof does not verify: %v", err)
		}
		ts := httptest.NewServer(s.Handler())
		defer ts.Close()
		c, err := client.New(ts.URL)
		if err != nil {
			t.Fatal(err)
		}
		art, wire, err := c.VerifiedArtifact(context.Background(), id)
		if err != nil {
			t.Fatalf("wire-verified fetch of the migrated artifact: %v", err)
		}
		if !bytes.Equal(art.Payload, payload) || *wire != committed {
			t.Fatal("wire artifact or proof differs from the committed ones")
		}
		res, err := s.RunExperiment(spec)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Cached {
			t.Fatal("migrated artifact recomputed instead of served from spill")
		}
	}

	dir := copyFixture(t)
	s := open(t, dir)
	served(t, s)
	s.Close()
	// A crash between the fold and the record's removal leaves both; the
	// next Open only removes the record.
	if err := os.MkdirAll(filepath.Join(dir, "prov"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, recordPath), rawRecord, 0o644); err != nil {
		t.Fatal(err)
	}
	s = open(t, dir)
	served(t, s)
	s.Close()

	t.Run("unverifiable-record", func(t *testing.T) {
		dir := copyFixture(t)
		forged := committed
		forged.Code = "registry:0000|tensor:reference"
		b, err := json.Marshal(forged)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, recordPath), b, 0o644); err != nil {
			t.Fatal(err)
		}
		s := open(t, dir)
		defer s.Close()
		if got := s.Stats().ProvenanceRecords; got != 0 {
			t.Fatalf("provenance_records = %d, want 0", got)
		}
		if _, _, err := s.artifactAt(id); !errors.Is(err, ErrArtifactUnknown) {
			t.Fatalf("artifact with a forged record = %v, want unknown", err)
		}
		res, err := s.RunExperiment(spec)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Cached {
			t.Fatal("legacy artifact no longer served by key")
		}
	})
}

// TestChaosPanickingSyncJob pins that a synchronous job whose compute
// panics is journaled failed rather than left launched: the runner hands
// journalFinish the memo.PanicError the cache recovered, so the next
// Open has nothing to replay into the same panic.
func TestChaosPanickingSyncJob(t *testing.T) {
	dir := t.TempDir()
	s1, _, err := Open(Config{StateDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	spec := CampaignSpec{Victim: "m", Mode: oracle.RawOutput, Seed: 1, Queries: 10}.withDefaults()
	key := spec.key()
	_, err = runSpecJob(s1, key, &journalRecord{Op: opLaunch, ID: key, Campaign: &spec}, nil,
		func() (*CampaignResult, error) { panic("kaboom: injected sync panic") })
	var pe *memo.PanicError
	if !errors.As(err, &pe) || !strings.Contains(fmt.Sprint(pe.Value), "injected sync panic") {
		t.Fatalf("err = %v, want a typed memo.PanicError carrying the panic value", err)
	}
	s1.Close()

	s2, rec, err := Open(Config{StateDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if rec.ReplayedCampaigns != 0 {
		t.Fatalf("recovery = %+v, want the panicked campaign journaled failed, not replayed", rec)
	}
}
