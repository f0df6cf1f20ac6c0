package dax

import (
	"encoding/xml"
	"fmt"
	"io"
	"sort"
	"strings"
)

// The on-disk format follows the shape of Pegasus DAX 3.x documents:
//
//	<adag name="blast2cap3">
//	  <job id="ID0000001" name="split" namespace="b2c3" version="1.0">
//	    <argument>-n 300 alignments.out</argument>
//	    <uses file="alignments.out" link="input" size="162529280"/>
//	    <profile namespace="pegasus" key="runtime">120</profile>
//	  </job>
//	  <child ref="ID0000002"><parent ref="ID0000001"/></child>
//	</adag>

type xmlADAG struct {
	XMLName xml.Name   `xml:"adag"`
	Name    string     `xml:"name,attr"`
	Jobs    []xmlJob   `xml:"job"`
	Childs  []xmlChild `xml:"child"`
}

type xmlJob struct {
	ID        string       `xml:"id,attr"`
	Name      string       `xml:"name,attr"`
	Namespace string       `xml:"namespace,attr,omitempty"`
	Version   string       `xml:"version,attr,omitempty"`
	Priority  int          `xml:"priority,attr,omitempty"`
	Argument  string       `xml:"argument,omitempty"`
	Uses      []xmlUse     `xml:"uses"`
	Profiles  []xmlProfile `xml:"profile"`
}

type xmlUse struct {
	File     string `xml:"file,attr"`
	Link     string `xml:"link,attr"`
	Size     int64  `xml:"size,attr,omitempty"`
	Transfer bool   `xml:"transfer,attr,omitempty"`
}

type xmlProfile struct {
	Namespace string `xml:"namespace,attr"`
	Key       string `xml:"key,attr"`
	Value     string `xml:",chardata"`
}

type xmlChild struct {
	Ref     string      `xml:"ref,attr"`
	Parents []xmlParent `xml:"parent"`
}

type xmlParent struct {
	Ref string `xml:"ref,attr"`
}

// WriteXML serializes the workflow as a DAX document.
func (w *Workflow) WriteXML(out io.Writer) error {
	doc := xmlADAG{Name: w.Name}
	for _, j := range w.jobs {
		xj := xmlJob{
			ID:        j.ID,
			Name:      j.Transformation,
			Namespace: j.Namespace,
			Version:   j.Version,
			Priority:  j.Priority,
			Argument:  strings.Join(j.Args, " "),
		}
		for _, u := range j.Uses {
			xj.Uses = append(xj.Uses, xmlUse{
				File: u.LFN, Link: u.Link.String(), Size: u.Size, Transfer: u.Transfer,
			})
		}
		keys := make([]string, 0, len(j.Profiles))
		for k := range j.Profiles {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			ns, key, ok := strings.Cut(k, "::")
			if !ok {
				ns, key = "app", k
			}
			xj.Profiles = append(xj.Profiles, xmlProfile{Namespace: ns, Key: key, Value: j.Profiles[k]})
		}
		doc.Jobs = append(doc.Jobs, xj)
	}
	t := w.topology()
	for k, j := range w.jobs {
		ps := t.parents(int32(k))
		if len(ps) == 0 {
			continue
		}
		c := xmlChild{Ref: j.ID, Parents: make([]xmlParent, len(ps))}
		for i, p := range ps {
			c.Parents[i] = xmlParent{Ref: w.jobs[p].ID}
		}
		doc.Childs = append(doc.Childs, c)
	}
	if _, err := io.WriteString(out, xml.Header); err != nil {
		return err
	}
	enc := xml.NewEncoder(out)
	enc.Indent("", "  ")
	if err := enc.Encode(doc); err != nil {
		return fmt.Errorf("dax: encoding workflow %q: %w", w.Name, err)
	}
	_, err := io.WriteString(out, "\n")
	return err
}

// ReadXML parses a DAX document into a workflow and validates it.
func ReadXML(in io.Reader) (*Workflow, error) {
	var doc xmlADAG
	dec := xml.NewDecoder(in)
	if err := dec.Decode(&doc); err != nil {
		return nil, fmt.Errorf("dax: parsing DAX: %w", err)
	}
	w := New(doc.Name)
	for _, xj := range doc.Jobs {
		j := &Job{
			ID:             xj.ID,
			Transformation: xj.Name,
			Namespace:      xj.Namespace,
			Version:        xj.Version,
			Priority:       xj.Priority,
		}
		if xj.Argument != "" {
			j.Args = strings.Fields(xj.Argument)
		}
		for _, u := range xj.Uses {
			link := LinkInput
			if u.Link == "output" {
				link = LinkOutput
			} else if u.Link != "input" {
				return nil, fmt.Errorf("dax: job %q uses %q with bad link %q", xj.ID, u.File, u.Link)
			}
			j.Uses = append(j.Uses, Use{LFN: u.File, Link: link, Size: u.Size, Transfer: u.Transfer})
		}
		for _, p := range xj.Profiles {
			j.SetProfile(p.Namespace, p.Key, strings.TrimSpace(p.Value))
		}
		if err := w.AddJob(j); err != nil {
			return nil, err
		}
	}
	for _, c := range doc.Childs {
		for _, p := range c.Parents {
			if err := w.AddDependency(p.Ref, c.Ref); err != nil {
				return nil, err
			}
		}
	}
	if err := w.Validate(); err != nil {
		return nil, err
	}
	return w, nil
}
