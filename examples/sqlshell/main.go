// Sqlshell: an interactive loop for the paper's SQL-like dialect over the
// YouTube benchmark. Each statement is parsed, planned, and executed —
// streaming (SVAQD) or top-k (RVAQ) depending on whether it ranks.
//
//	go run ./examples/sqlshell
//	svq> SELECT MERGE(clipID) AS s FROM (PROCESS q2 PRODUCE clipID,
//	     obj USING ObjectDetector, act USING ActionRecognizer)
//	     WHERE act='blowing_leaves' AND obj.include('car')
package main

import (
	"bufio"
	"context"
	"fmt"
	"log"
	"os"
	"strings"

	"svqact/internal/core"
	"svqact/internal/detect"
	"svqact/internal/rank"
	"svqact/internal/sqlq"
	"svqact/internal/stmt"
	"svqact/internal/synth"
)

func main() {
	fmt.Println("loading youtube benchmark (scale 0.15)...")
	dataset := synth.YouTube(synth.Options{Scale: 0.15, Seed: 42})
	models := detect.NewModels(
		detect.NewObjectDetector(detect.MaskRCNN, 42),
		detect.NewActionRecognizer(detect.I3D, 42),
	)
	fmt.Println("sources: q1..q12 (each the concatenated videos of one query set)")
	fmt.Println("end statements with a blank line; ctrl-D exits")

	scanner := bufio.NewScanner(os.Stdin)
	var buf strings.Builder
	fmt.Print("svq> ")
	for scanner.Scan() {
		line := scanner.Text()
		if strings.TrimSpace(line) != "" {
			buf.WriteString(line)
			buf.WriteByte('\n')
			fmt.Print("...> ")
			continue
		}
		text := strings.TrimSpace(buf.String())
		buf.Reset()
		if text != "" {
			if err := execute(text, dataset, models); err != nil {
				fmt.Println("error:", err)
			}
		}
		fmt.Print("svq> ")
	}
	fmt.Println()
}

func execute(text string, dataset *synth.Dataset, models detect.Models) error {
	st, err := sqlq.Parse(text)
	if err != nil {
		return err
	}
	plan, err := st.Plan()
	if err != nil {
		return err
	}
	spec := dataset.Query(plan.Source)
	if spec == nil {
		return fmt.Errorf("unknown source %q (use q1..q12)", plan.Source)
	}
	var vids []*synth.Video
	var tvs []detect.TruthVideo
	for _, v := range dataset.Videos {
		if !v.ActionPresence(spec.Action).Empty() {
			vids, tvs = append(vids, v), append(tvs, v)
		}
	}
	env := stmt.Env{
		Models: models,
		Engine: core.DefaultConfig(),
		Stream: func(name string) (detect.TruthVideo, error) { return synth.NewConcat(name, vids) },
	}
	if !plan.Online {
		// Rank over the set's videos as a repository view, so every hit
		// names its video.
		fmt.Printf("ingesting %s for offline processing...\n", plan.Source)
		env.Repo, err = rank.IngestAll(context.Background(), plan.Source, tvs, models, rank.PaperScoring(), rank.DefaultIngestConfig())
		if err != nil {
			return err
		}
	}
	ans, err := stmt.Execute(context.Background(), plan, "svaqd", env)
	if err != nil {
		return err
	}
	if plan.Online {
		fmt.Printf("%d result sequences over %d clips:\n", len(ans.Sequences), ans.NumClips)
		for _, sq := range ans.Sequences {
			fmt.Printf("  clips %4d..%-4d\n", sq.StartClip, sq.EndClip)
		}
		return nil
	}
	fmt.Printf("top-%d of %d candidates (%d random accesses):\n", ans.K, ans.Candidates, ans.RandomAccesses)
	for i, sq := range ans.Sequences {
		fmt.Printf("  #%d score %9.2f  %s clips %d..%d\n", i+1, sq.Score, sq.Video, sq.StartClip, sq.EndClip)
	}
	return nil
}

var _ = log.Fatal
