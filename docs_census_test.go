package oooback

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// docsNumbersAllow lists the decimals that the census texts quote although
// their reports do not print them, keyed "<file> <id> <decimal>": the file
// that quotes it, the first report id of its section (or table row), and the
// decimal as written. A reason starts with "paper:" (a number of the source
// paper, quoted for comparison) or "derived:" (computed from the report's
// own numbers; the reason says how). TestDocsCensusQuotedNumbers fails on an
// unlisted decimal that its reports do not print, and on an entry whose
// decimal is printed by its reports or no longer quoted, so the list can only
// shrink.
var docsNumbersAllow = map[string]string{
	"EXPERIMENTS.md baselines-pipe 1.14":       "paper: §8.4.2, OOO-Pipe2 over Megatron 2, smallest",
	"EXPERIMENTS.md baselines-pipe 1.29":       "paper: §8.4.2, OOO-Pipe2 over DAPPLE, smallest; over Megatron 2, largest",
	"EXPERIMENTS.md baselines-pipe 1.47":       "paper: §8.4.2, OOO-Pipe2 over DAPPLE, largest (8–16 GPUs)",
	"EXPERIMENTS.md baselines-pipe 20.4":       "paper: §8.4.2, mean gain of fast-forwarding alone added to Megatron, %",
	"EXPERIMENTS.md bfc-fragmentation 1142.70": "derived: the arena, 1.25 × ResNet-50's conventional peak of 914.16 MB (results/mem-single.txt)",
	"EXPERIMENTS.md fig10 1.198":               "paper: Fig 10, OOO-BytePS over BytePS for ResNet-101 on V100",
	"EXPERIMENTS.md fig10 1.21":                "derived: OOO-BytePS ÷ Horovod throughput at 8 or more GPUs, smallest (Priv-B ResNet-50, 8 GPUs: 1680 / 1394)",
	"EXPERIMENTS.md fig10 15.3":                "paper: Fig 10, OOO-BytePS gain on 8 TitanXP, %",
	"EXPERIMENTS.md fig10 2.70":                "derived: OOO-BytePS ÷ Horovod throughput, largest (Pub-A ResNet-101, 48 GPUs: 6505 / 2411)",
	"EXPERIMENTS.md fig10 26.5":                "paper: Fig 10, OOO-BytePS gain for ResNet-50 on 16 V100, %",
	"EXPERIMENTS.md fig10 27.1":                "paper: Fig 10, OOO-BytePS gain for ResNet-101 on 20 P100, %",
	"EXPERIMENTS.md fig10 3.5":                 "paper: Fig 10, Horovod's largest shortfall against OOO-BytePS",
	"EXPERIMENTS.md fig11a 1.15":               "paper: Fig 11a, BERT-24 OOO-Pipe1 over GPipe",
	"EXPERIMENTS.md fig11a 1.18":               "paper: Fig 11a, FFNN-16 OOO-Pipe1 over GPipe",
	"EXPERIMENTS.md fig11a 1.31":               "derived: RNN-16 OOO-Pipe2 ÷ model-parallel throughput, 465 / 355 seq/s",
	"EXPERIMENTS.md fig11a 1.47":               "paper: Fig 11a, RNN OOO-Pipe2 over model parallelism",
	"EXPERIMENTS.md fig11a 1.5":                "paper: Fig 11a, FFNN-16 OOO-Pipe2 over GPipe",
	"EXPERIMENTS.md fig11a 1.59":               "paper: Fig 11a, BERT-24 OOO-Pipe2 over GPipe",
	"EXPERIMENTS.md fig11a 1.99":               "paper: Fig 11a, RNN OOO-Pipe2 over GPipe",
	"EXPERIMENTS.md fig11a 3.2":                "paper: Fig 11a, BERT-24 OOO-Pipe2 over one GPU",
	"EXPERIMENTS.md fig11b 1.48":               "paper: Fig 11b, OOO-Pipe2 over GPipe on 10 GbE",
	"EXPERIMENTS.md fig11b 1.58":               "paper: Fig 11b, OOO-Pipe2 over GPipe on PCIe",
	"EXPERIMENTS.md fig11b 1.70":               "paper: Fig 11b, OOO-Pipe2 over GPipe on NVLink",
	"EXPERIMENTS.md fig13a 1.14":               "paper: Fig 13a, OOO-Pipe2 over PipeDream at 16–32 GPUs, smallest",
	"EXPERIMENTS.md fig13a 1.25":               "paper: Fig 13a, OOO-Pipe2 over PipeDream at 16–32 GPUs, largest",
	"EXPERIMENTS.md fig13a 1.45":               "paper: Fig 13a, OOO-Pipe2 over GPipe at 16–32 GPUs, largest",
	"EXPERIMENTS.md fig13a 1.63":               "paper: Fig 13a, OOO-Pipe2 over PipeDream at 8 GPUs",
	"EXPERIMENTS.md fig13a 1.73":               "paper: Fig 13a, OOO-Pipe2 over GPipe at 8 GPUs (BERT-12)",
	"EXPERIMENTS.md fig13b 2.5":                "paper: Fig 13b, BERT-24/48 speedup from 8 to 32 GPUs",
	"EXPERIMENTS.md fig5 1.40":                 "derived: fig6's GPipe ÷ OOO-Pipe2 makespan, 112.938423 / 80.492759 ms",
	"EXPERIMENTS.md fig5 1.44":                 "paper: Fig 5, fast-forwarding plus modulo allocation over model parallelism",
	"EXPERIMENTS.md fig7 1.06":                 "paper: Fig 7, OOO-XLA over XLA for the ResNets, largest",
	"EXPERIMENTS.md fig7 1.54":                 "paper: Fig 7, OOO-XLA over XLA for DenseNet k=12 b=32",
	"EXPERIMENTS.md fig7 1.58":                 "paper: Fig 7, OOO-XLA over XLA, largest (MobileNet α=0.25 b=32)",
	"EXPERIMENTS.md fig9 0.1":                  "paper: §8.2, bound on the peak-memory rise under the memory constraint, %",
	"EXPERIMENTS.md fig9 1.1":                  "paper: §8.2, the memory constraint, × the conventional peak",
}

// docsNumberReason is the form every docsNumbersAllow reason takes.
var docsNumberReason = regexp.MustCompile(`^(paper|derived):`)

// docsDecimal matches a decimal, or a dotted section number such as §8.4.1,
// which callers skip.
var docsDecimal = regexp.MustCompile(`§?\d+(?:\.\d+)+`)

// decimals returns the distinct decimals of text: digits, one point, digits.
// Section numbers (§8.3) and dotted versions (8.4.1) are not decimals.
func decimals(text string) []string {
	var out []string
	seen := map[string]bool{}
	for _, d := range docsDecimal.FindAllString(text, -1) {
		if strings.HasPrefix(d, "§") || strings.Count(d, ".") != 1 || seen[d] {
			continue
		}
		seen[d] = true
		out = append(out, d)
	}
	return out
}

// docsReport returns the decimals that the reports results/<id>.txt of ids
// print, and the names of the reports that exist ("" when none does).
func docsReport(t *testing.T, ids []string) (printed map[string]bool, names string) {
	var text, found []string
	for _, id := range ids {
		name := filepath.Join("results", id+".txt")
		b, err := os.ReadFile(name)
		if os.IsNotExist(err) {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		text, found = append(text, string(b)), append(found, name)
	}
	return decimalSet(strings.Join(text, "\n")), strings.Join(found, ", ")
}

// decimalSet is decimals(text) as a set.
func decimalSet(text string) map[string]bool {
	set := map[string]bool{}
	for _, d := range decimals(text) {
		set[d] = true
	}
	return set
}

// docsIDs splits a section heading's or table cell's id list ("fig9 +
// mem-single", "fig5 / fig6 / fig12", "`fig13a`") into ids.
func docsIDs(s string) []string {
	return strings.FieldsFunc(s, func(r rune) bool {
		return r == ' ' || r == '+' || r == '/' || r == ',' || r == '`'
	})
}

// experimentSection is one "## <ids> — <title>" section of EXPERIMENTS.md.
type experimentSection struct {
	ids   []string
	body  string // the whole section below its heading
	paper string // the paragraph that starts "Paper:"
}

func experimentSections(t *testing.T) []experimentSection {
	b, err := os.ReadFile("EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	var out []experimentSection
	for _, sec := range strings.Split(string(b), "\n## ")[1:] {
		heading, body, _ := strings.Cut(sec, "\n")
		idPart, _, _ := strings.Cut(heading, " — ")
		s := experimentSection{ids: docsIDs(idPart), body: body}
		for _, para := range strings.Split(body, "\n\n") {
			if strings.HasPrefix(strings.TrimSpace(para), "Paper:") {
				s.paper += para + "\n"
			}
		}
		out = append(out, s)
	}
	return out
}

// TestDocsCensusQuotedNumbers holds the numbers the docs quote from results/
// to the reports. Every decimal of an EXPERIMENTS.md section whose ids have a
// results/<id>.txt, its "Paper:" paragraph included, must appear verbatim in
// one of those reports; the source paper's own figures therefore each need a
// paper: entry. README's paper-vs-ours table names its reports in its
// last column: each "This repo" decimal must appear verbatim in them, and
// each "Paper" decimal in the "Paper:" paragraph of the EXPERIMENTS.md section
// of the row's first report. Anything else needs a docsNumbersAllow entry.
func TestDocsCensusQuotedNumbers(t *testing.T) {
	used := map[string]bool{}
	check := func(file, id, text string, printed map[string]bool, where string) {
		for _, d := range decimals(text) {
			key := file + " " + id + " " + d
			allowed := docsNumbersAllow[key] != ""
			used[key] = used[key] || allowed
			switch {
			case printed[d] && allowed:
				t.Errorf("docsNumbersAllow lists %q, but %s has %s: drop the entry", key, where, d)
			case !printed[d] && !allowed:
				t.Errorf("%s (%s) quotes %s, which is not in %s: quote the report's own digits, or give docsNumbersAllow[%q] a paper: or derived: reason", file, id, d, where, key)
			}
		}
	}

	paperOf := map[string]string{}
	checked := 0
	for _, s := range experimentSections(t) {
		printed, reports := docsReport(t, s.ids)
		if reports == "" {
			continue
		}
		checked++
		paperOf[s.ids[0]] = s.paper
		check("EXPERIMENTS.md", s.ids[0], s.body, printed, reports)
	}
	if checked < 25 {
		t.Fatalf("only %d EXPERIMENTS.md sections have a report: is the heading form \"## <id> — <title>\" still in use?", checked)
	}

	rows := readmeClaims(t)
	if len(rows) < 5 {
		t.Fatalf("README's paper-vs-ours table has %d rows; expected the | Claim | Paper | This repo | Report | table", len(rows))
	}
	for _, r := range rows {
		ids := docsIDs(r[3])
		printed, reports := docsReport(t, ids)
		if reports == "" {
			t.Errorf("README table row %q names no report with a results/<id>.txt: %q", r[0], r[3])
			continue
		}
		paper, ok := paperOf[ids[0]]
		if !ok {
			t.Errorf("README table row %q: EXPERIMENTS.md has no section for %s", r[0], ids[0])
		}
		check("README.md", ids[0], r[2], printed, reports)
		check("README.md", ids[0], r[1], decimalSet(paper), "the EXPERIMENTS.md "+ids[0]+" Paper: paragraph")
	}

	for key, reason := range docsNumbersAllow {
		if !used[key] {
			t.Errorf("docsNumbersAllow lists %q, which no census text quotes any more: drop the entry", key)
		}
		if !docsNumberReason.MatchString(reason) {
			t.Errorf("docsNumbersAllow reason for %q is %q: it must start with \"paper:\" or \"derived:\"", key, reason)
		}
	}
}

// readmeClaims returns the cells of README's paper-vs-ours table, the rows
// under its | Claim | Paper | This repo | Report | header.
func readmeClaims(t *testing.T) [][]string {
	b, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	var rows [][]string
	in := false
	for _, line := range strings.Split(string(b), "\n") {
		if !strings.HasPrefix(line, "|") {
			in = false
			continue
		}
		cells := strings.Split(strings.Trim(line, "|"), "|")
		for i := range cells {
			cells[i] = strings.TrimSpace(cells[i])
		}
		switch {
		case len(cells) == 4 && cells[0] == "Claim" && cells[3] == "Report":
			in = true
		case in && len(cells) == 4 && !strings.HasPrefix(cells[0], "---"):
			rows = append(rows, cells)
		}
	}
	return rows
}

// docsRef matches a reference to a DESIGN.md section: "DESIGN.md" or
// "DESIGN", then § and the number, perhaps more numbers joined by "/", "–",
// "," or "and", perhaps wrapped over a line or a Go comment marker. An anchor
// may follow the first number, set in asterisks or double quotes, after an
// optional comma or opening parenthesis: §N *Hand-offs*, §N, *Observing a
// step*, §N "the probe path".
var docsRef = regexp.MustCompile(`DESIGN(?:\.md)?(?:'s)?\s+(?://\s*)?§(\d+)((?:\s*(?:/|–|,|and)\s*§\d+)*)(?:,?\s*\(?(?:\*([^*\n]+)\*|"([^"\n]+)"))?`)

// docsSection is a section number inside docsRef's list of further numbers;
// docsHeading a "## N. Title" heading of DESIGN.md, without its "## ";
// docsBold a bold run.
var (
	docsSection = regexp.MustCompile(`§(\d+)`)
	docsHeading = regexp.MustCompile(`^(\d+)\. `)
	docsBold    = regexp.MustCompile(`(?s)\*\*(.+?)\*\*`)
)

// designSections maps each "## N. Title" section of DESIGN.md to its text.
func designSections(t *testing.T) map[string]string {
	b, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]string{}
	for _, sec := range strings.Split(string(b), "\n## ")[1:] {
		if m := docsHeading.FindStringSubmatch(sec); m != nil {
			out[m[1]] = sec
		}
	}
	return out
}

// docsAnchor reports whether section text has anchor in a heading or a bold
// run, ignoring case: "### Hand-offs", "**The probe path: ...**".
func docsAnchor(section, anchor string) bool {
	anchor = strings.ToLower(anchor)
	for _, line := range strings.Split(section, "\n") {
		if strings.HasPrefix(line, "#") && strings.Contains(strings.ToLower(line), anchor) {
			return true
		}
	}
	for _, bold := range docsBold.FindAllStringSubmatch(section, -1) {
		if strings.Contains(strings.ToLower(strings.Join(strings.Fields(bold[1]), " ")), anchor) {
			return true
		}
	}
	return false
}

// TestDocsCensusSectionRefs checks every DESIGN.md section reference in the
// repository's Markdown files (those under .claude/ included) and Go
// files: the section number must be a "## N." heading of DESIGN.md, and an
// anchor named right after the number must be a heading or a bold run of
// that section.
func TestDocsCensusSectionRefs(t *testing.T) {
	sections := designSections(t)
	if len(sections) < 15 {
		t.Fatalf("DESIGN.md has %d numbered sections; §1–§15 keep their numbers", len(sections))
	}
	refs := 0
	var files []string
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != "." && strings.HasPrefix(name, ".") && name != ".claude" && name != ".github" {
				return filepath.SkipDir
			}
			if name == "testdata" || name == "results" || name == "schedules" {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(name, ".md") || strings.HasSuffix(name, ".go") {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(files)
	for _, path := range files {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		text := string(b)
		for _, m := range docsRef.FindAllStringSubmatchIndex(text, -1) {
			refs++
			line := 1 + strings.Count(text[:m[0]], "\n")
			nums := []string{text[m[2]:m[3]]}
			for _, more := range docsSection.FindAllStringSubmatch(text[m[4]:m[5]], -1) {
				nums = append(nums, more[1])
			}
			for _, n := range nums {
				if sections[n] == "" {
					t.Errorf("%s:%d: %q refers to DESIGN.md §%s, which has no \"## %s.\" heading", path, line, text[m[0]:m[1]], n, n)
				}
			}
			anchor := ""
			if m[6] >= 0 {
				anchor = text[m[6]:m[7]]
			} else if m[8] >= 0 {
				anchor = text[m[8]:m[9]]
			}
			anchor = strings.Join(strings.Fields(anchor), " ")
			if sec := sections[nums[0]]; anchor != "" && sec != "" && !docsAnchor(sec, anchor) {
				t.Errorf("%s:%d: %q names %q, which is no heading or bold run of DESIGN.md §%s", path, line, text[m[0]:m[1]], anchor, nums[0])
			}
		}
	}
	if refs < 30 {
		t.Fatalf("found only %d DESIGN.md section references; is the pattern still matching?", refs)
	}
	t.Logf("checked %d DESIGN.md section references in %d files", refs, len(files))
}
