package planner

import (
	"reflect"
	"testing"
)

// resiteFresh is Resite as it was when it re-resolved the transformation on
// every call: the reference for the memoized one.
func resiteFresh(f *Failover, failures map[string]int, job *Job, lastSite string) *Job {
	failures[lastSite]++
	cands := siteCandidates(f.cats, f.sites, job.Transformation)
	best := -1
	for i, c := range cands {
		if c.Site.Name == lastSite {
			continue
		}
		if best < 0 || failures[c.Site.Name] < failures[cands[best].Site.Name] {
			best = i
		}
	}
	if best < 0 {
		return nil
	}
	nj := *job
	nj.Site = cands[best].Site.Name
	nj.NeedsInstall = !cands[best].Entry.Installed
	nj.InstallBytes = 0
	if nj.NeedsInstall {
		nj.InstallBytes = cands[best].Entry.InstallBytes
	}
	return &nj
}

var resiteSink *Job

// TestAllocsResite: a thousand retries over three transformations choose
// what a fresh resolution per retry chooses, and once each transformation
// has been seen a retry allocates the job it returns and nothing else.
func TestAllocsResite(t *testing.T) {
	cats := testCatalogs(t, "split", "run_cap3", "merge")
	sites := []string{"sandhills", "osg"}
	f, err := NewFailover(cats, sites)
	if err != nil {
		t.Fatal(err)
	}
	jobs := []Job{
		{ID: "a", Transformation: "split", Site: "osg", NeedsInstall: true, InstallBytes: 50 << 20},
		{ID: "b", Transformation: "run_cap3", Site: "sandhills", ExecSeconds: 100},
		{ID: "c", Transformation: "merge", Site: "osg", NeedsInstall: true, InstallBytes: 50 << 20},
	}
	failures := make(map[string]int)
	for k := 0; k < 1000; k++ {
		j := &jobs[k%len(jobs)]
		last := sites[(k/3)%2]
		want, got := resiteFresh(f, failures, j, last), f.Resite(j, 1+k%3, last, k%2 == 0)
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("retry %d of %s after %s: re-sited to %+v, a fresh resolution gives %+v", k, j.ID, last, got, want)
		}
	}
	k := 0
	if got := testing.AllocsPerRun(1000, func() {
		resiteSink = f.Resite(&jobs[k%len(jobs)], 1, sites[k%2], false)
		k++
	}); got != 1 {
		t.Errorf("a retry allocates %v objects, want 1: the job it returns", got)
	}
}
