package dist

import (
	"os"
	"regexp"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/service"
)

// docMetric is one row of OBSERVABILITY.md's "Served metric names".
type docMetric struct {
	name, kind string
	re         *regexp.Regexp
	seen       bool
}

// servedMetricRows parses the tables of that section: first cell one
// backticked name, second cell its kind. <i> and <k> stand for an index,
// <engine> for a worker slot's (or a fleet shard's) engine prefix.
func servedMetricRows(t *testing.T) []*docMetric {
	t.Helper()
	text, err := os.ReadFile("../../OBSERVABILITY.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(text), "\n## Served metric names\n")
	if !ok {
		t.Fatal(`OBSERVABILITY.md has no "## Served metric names" section`)
	}
	section, _, _ = strings.Cut(section, "\n## ")
	expand := strings.NewReplacer(
		"<engine>", `serve\.worker\d+(\.shard\d+)?`, "<i>", `\d+`, "<k>", `\d+`)
	var rows []*docMetric
	for _, line := range strings.Split(section, "\n") {
		cells := strings.Split(line, "|")
		if len(cells) < 4 || !strings.HasPrefix(strings.TrimSpace(cells[1]), "`") {
			continue
		}
		name := strings.Trim(strings.TrimSpace(cells[1]), "`")
		rows = append(rows, &docMetric{
			name: name,
			kind: strings.TrimSpace(cells[2]),
			re:   regexp.MustCompile("^" + expand.Replace(regexp.QuoteMeta(name)) + "$"),
		})
	}
	if len(rows) < 40 {
		t.Fatalf("parsed %d metric rows; the section's tables changed shape", len(rows))
	}
	return rows
}

// TestMetricTablesMatchRegistry holds OBSERVABILITY.md's metric tables
// to what /metricsz serves, both ways: a worker runs one job per engine
// family, a coordinator fans a csim-grid job out over it, and every
// published name must match a row of the right kind and every row must
// be published.
func TestMetricTablesMatchRegistry(t *testing.T) {
	front, coord, _ := startCluster(t, 2, nil)
	worker := service.NewClient(coord.Workers()[0])
	ctx := ctxT(t)
	run := func(cl *service.Client, engine string) {
		t.Helper()
		v, err := cl.Run(ctx, service.JobSpec{Circuit: "s1494", Engine: engine, Random: 64, Seed: 1}, 0)
		if err != nil || v.Status != service.StatusDone {
			t.Fatalf("%s on %s: %v / %+v", engine, cl.BaseURL, err, v)
		}
	}
	for _, engine := range []string{"csim-MV", "csim-C", "csim-grid"} {
		run(worker, engine)
	}
	run(front, "csim-grid")

	var published []obs.Point
	for _, cl := range []*service.Client{worker, front} {
		m, err := cl.Metricsz(ctx)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range m {
			published = append(published, p)
		}
	}
	rows := servedMetricRows(t)
	for _, p := range published {
		matched := false
		for _, r := range rows {
			if r.re.MatchString(p.Name) {
				matched, r.seen = true, true
				if r.kind != p.Kind {
					t.Errorf("%s is a %s; its row %s says %s", p.Name, p.Kind, r.name, r.kind)
				}
			}
		}
		if !matched {
			t.Errorf("%s (%s) is published but has no row in OBSERVABILITY.md", p.Name, p.Kind)
		}
	}
	for _, r := range rows {
		if !r.seen {
			t.Errorf("OBSERVABILITY.md documents %s; no job or server published it", r.name)
		}
	}
}
