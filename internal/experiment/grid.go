package experiment

import (
	"fmt"
	"math"
	"runtime"
	"sync"

	"mpdp/internal/nf"
	"mpdp/internal/stats"
)

// An experiment is one entry of the suite table: its ID, title and notes,
// and the grid of runs whose averaged measures become its tables and
// figures.
type experiment struct {
	id, title string
	notes     []string
	grid
	// finish, when set, adds what a grid cannot express once the grid's
	// tables and figures are in res (E20's title, E22's frontier and wire
	// leg).
	finish func(res *Result, opts SuiteOpts) error
}

func (e *experiment) run(opts SuiteOpts) (*Result, error) {
	opts.fill()
	res := &Result{ID: e.id, Title: e.title, Notes: append([]string(nil), e.notes...)}
	if err := e.grid.runInto(res, opts); err != nil {
		return nil, err
	}
	if e.finish != nil {
		if err := e.finish(res, opts); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// A grid is the sweep behind an experiment. Every series point crossed with
// every axis point is one cell, and every cell runs once per seed. Each
// measure is averaged over a cell's seeds; a table gets one row per cell, a
// figure one curve per series point with one point per axis point.
type grid struct {
	// base is every cell's configuration before its points apply. Its
	// Duration is the full-scale horizon; SuiteOpts.Quick divides it by 5.
	base   RunConfig
	series []point // the curves of a figure; a table row's first label
	axis   []point // the x values of a figure; a table row's second label (optional)

	// single runs each cell once, at the base seed, whatever SuiteOpts.Seeds
	// says.
	single bool
	// pool replays each cell's seeds into one latency histogram and reports
	// the pooled distribution (E1, E3) instead of averaging the runs.
	pool bool
	// cell, when set, replaces Run with a hand-built data plane: it runs
	// one seed of one cell and returns the value of every measure, in order.
	cell func(c cellConfig, quick bool) ([]float64, error)

	measures []measure
	table    *Table // Name, Title and the row-label headers; the measures fill the rest
	figures  []plot
}

// A point is one value of a sweep: a label for table rows and curves, an x
// coordinate for figures, and what it changes in a cell's configuration.
type point struct {
	label string
	x     float64
	set   func(c *cellConfig)
}

// cellConfig configures one cell: a RunConfig, plus the knobs only the
// hand-built planes read.
type cellConfig struct {
	RunConfig
	n     int              // incast fan-in (E6), closed-loop clients (E18)
	chain func() *nf.Chain // lane chain (E16); nil is the 3-NF preset
}

// A measure is one number read off each run of a cell and averaged over the
// cell's seeds: a table column, or the figure axis whose label is its name.
type measure struct {
	name   string
	format string // table cell verb; a NaN (an event that never happened) prints "never"
	// of reads the measure off a run; hand-built cells return the value
	// themselves and leave it nil.
	of func(RunResult) float64
	// count averages like a summed integer counter: the mean is truncated.
	count bool
}

// count is a counter measure, printed as an integer.
func count(name string, of func(RunResult) uint64) measure {
	return measure{name: name, format: "%.0f", count: true,
		of: func(r RunResult) float64 { return float64(of(r)) }}
}

func (m measure) text(v float64) string {
	if math.IsNaN(v) {
		return "never"
	}
	return fmt.Sprintf(m.format, v)
}

// A plot is one figure of a grid. Its YLabel names the measure plotted, and
// so does its XLabel when a measure has that name; otherwise x is the axis
// point's. curve, when set, draws a series point's whole curve from its
// cell's one run instead (a latency CDF, a windowed timeline).
type plot struct {
	Figure
	curve func(RunResult) []Point
}

// runInto runs the whole grid (every cell and seed on one worker pool) and
// appends its table and figures to res.
func (g *grid) runInto(res *Result, opts SuiteOpts) error {
	axis := g.axis
	if len(axis) == 0 {
		axis = []point{{}}
	}
	seeds := opts.Seeds
	if g.single {
		seeds = 1
	}
	var jobs []cellConfig // cell-major, seed-minor
	for _, s := range g.series {
		for _, a := range axis {
			c := cellConfig{RunConfig: g.base}
			c.Seed, c.Duration = opts.Seed, opts.duration(g.base.Duration)
			for _, p := range []point{s, a} {
				if p.set != nil {
					p.set(&c)
				}
			}
			for i, rc := range seedConfigs(c.RunConfig, seeds) {
				job := c
				job.RunConfig = rc
				if g.pool || g.cell != nil {
					// These experiments predate seedConfigs and keep their
					// own seed stride, so their numbers stay comparable.
					job.Seed = c.Seed + uint64(i)*7919
				}
				jobs = append(jobs, job)
			}
		}
	}

	var vals [][]float64 // hand-built cells: per job, one value per measure
	var runs []RunResult
	if g.cell != nil {
		vals = make([][]float64, len(jobs))
		err := each(len(jobs), func(i int) (err error) {
			vals[i], err = g.cell(jobs[i], opts.Quick)
			return err
		})
		if err != nil {
			return err
		}
	} else {
		cfgs := make([]RunConfig, len(jobs))
		for i := range jobs {
			cfgs[i] = jobs[i].RunConfig
		}
		var err error
		if runs, err = RunMany(cfgs, 0); err != nil {
			return err
		}
	}

	// Per cell: the mean of every measure, and the run a curve plot draws.
	means := make([][]float64, len(jobs)/seeds)
	one := make([]RunResult, len(means))
	for k := range means {
		var rows [][]float64
		if g.cell != nil {
			rows = vals[k*seeds : (k+1)*seeds]
		} else {
			rs := runs[k*seeds : (k+1)*seeds]
			if g.pool {
				rs = []RunResult{pooled(rs)}
			}
			one[k] = rs[0]
			for _, r := range rs {
				row := make([]float64, len(g.measures))
				for m, ms := range g.measures {
					row[m] = ms.of(r)
				}
				rows = append(rows, row)
			}
		}
		means[k] = make([]float64, len(g.measures))
		for m, ms := range g.measures {
			var sum float64
			for _, row := range rows {
				sum += row[m]
			}
			mean := sum / float64(len(rows))
			if ms.count {
				mean = math.Trunc(mean)
			}
			means[k][m] = mean
		}
	}

	if g.table != nil {
		tab := *g.table
		tab.Columns = append([]string(nil), tab.Columns...)
		for _, ms := range g.measures {
			tab.Columns = append(tab.Columns, ms.name)
		}
		for si, s := range g.series {
			for ai, a := range axis {
				row := []string{s.label}
				if len(g.axis) > 0 {
					row = append(row, a.label)
				}
				for m, ms := range g.measures {
					row = append(row, ms.text(means[si*len(axis)+ai][m]))
				}
				tab.Rows = append(tab.Rows, row)
			}
		}
		res.Tables = append(res.Tables, tab)
	}
	for _, p := range g.figures {
		fig := p.Figure
		x, y := g.measure(fig.XLabel), g.measure(fig.YLabel)
		for si, s := range g.series {
			curve := Curve{Label: s.label}
			for ai, a := range axis {
				k := si*len(axis) + ai
				switch {
				case p.curve != nil:
					curve.Points = append(curve.Points, p.curve(one[k])...)
				case x >= 0:
					curve.Points = append(curve.Points, Point{X: means[k][x], Y: means[k][y]})
				default:
					curve.Points = append(curve.Points, Point{X: a.x, Y: means[k][y]})
				}
			}
			fig.Curves = append(fig.Curves, curve)
		}
		res.Figures = append(res.Figures, fig)
	}
	return nil
}

// measure returns the index of the named measure, or -1.
func (g *grid) measure(name string) int {
	for i, m := range g.measures {
		if m.name == name {
			return i
		}
	}
	return -1
}

// pooled replays the runs' latency CDFs into one histogram and returns it
// as a single run carrying the pooled Latency and CDF.
func pooled(rs []RunResult) RunResult {
	h := stats.NewHist()
	for _, r := range rs {
		mergeSummaryInto(h, r)
	}
	return RunResult{Latency: h.Summarize(), CDF: h.CDF()}
}

// mergeSummaryInto replays a run's CDF into a merged histogram. The CDF is
// bucket-resolution, which is exactly what the histogram stores anyway.
// Each cumulative count is recovered by rounding frac*total to nearest:
// the product often lands a hair below the integer (1/49*49 < 1), and
// truncating it would move a sample one bucket up. Rounding is exact while
// counts stay below 2^52.
func mergeSummaryInto(h *stats.Hist, r RunResult) {
	var prev uint64
	total := r.Latency.Count
	for _, p := range r.CDF {
		cum := uint64(math.Round(p.Frac * float64(total)))
		for i := prev; i < cum; i++ {
			h.Record(p.Value)
		}
		prev = cum
	}
}

// each runs fn(0), …, fn(n-1) on GOMAXPROCS goroutines, as RunMany runs
// configurations, and returns the lowest-indexed error. Hand-built cells
// own their simulator and RNG streams, so the order they finish in changes
// nothing.
func each(n int, fn func(i int) error) error {
	errs := make([]error, n)
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < min(n, runtime.GOMAXPROCS(0)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				errs[i] = fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
