//! Code listings behind the lines-of-code metric (Fig. 12a).
//!
//! The paper counts the lines of its Python notebooks and of its Texera
//! workflow definitions (operator configs + UDF bodies). We cannot ship
//! the authors' code, so each listing here is a faithful pseudo-code
//! rendering of what *our* implementation of the task does, written in
//! the idiom of its paradigm. The script listings mirror the real
//! MACCROBAT preprocessing structure — long per-annotation-type parsing
//! code is exactly why the paper's DICE notebook is 377 lines — and the
//! workflow listings are operator-by-operator configuration blocks.
//!
//! LoC is counted the way [`scriptflow_notebook::Cell::lines_of_code`]
//! counts: non-empty, non-comment lines.

/// The MACCROBAT annotation types driving the per-type parser blocks.
const ANN_TYPES: [&str; 10] = [
    "Age",
    "Sex",
    "Sign_symptom",
    "Clinical_event",
    "Therapeutic_procedure",
    "Medication",
    "Diagnostic_procedure",
    "Disease_disorder",
    "Lab_value",
    "Duration",
];

/// Count non-empty, non-comment lines the same way the notebook engine
/// does.
pub fn count_loc(listing: &str) -> usize {
    listing
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .count()
}

// ---------------------------------------------------------------------
// DICE
// ---------------------------------------------------------------------

/// DICE notebook, cell 1: imports + configuration.
pub fn dice_script_cell_setup() -> String {
    let mut s = String::from(
        "import os\nimport re\nimport json\nimport ray\nimport pandas as pd\nfrom collections import defaultdict\nfrom glob import glob\n",
    );
    s.push_str("ray.init(address='auto')\n");
    s.push_str("DATA_DIR = 'maccrobat/'\n");
    s.push_str("ANN_GLOB = os.path.join(DATA_DIR, '*.ann')\n");
    s.push_str("TXT_GLOB = os.path.join(DATA_DIR, '*.txt')\n");
    s.push_str("SENT_SPLIT = re.compile(r'(?<=[.!?])\\s+')\n");
    s.push_str("SPAN_RE = re.compile(r'^(T\\d+)\\t(\\w+) (\\d+) (\\d+)\\t(.*)$')\n");
    s.push_str("EVENT_RE = re.compile(r'^(E\\d+)\\t(\\w+):(T\\d+)')\n");
    s
}

/// DICE notebook, cell 2: per-type annotation parsing (the long part).
pub fn dice_script_cell_parse() -> String {
    let mut s = String::new();
    for t in ANN_TYPES {
        let lower = t.to_lowercase();
        s.push_str(&format!(
            "def parse_{lower}(key, fields, text):\n    start, end = int(fields[1]), int(fields[2])\n    span = text[start:end]\n    if fields[0] != '{t}':\n        return None\n    attrs = {{}}\n    attrs['normalized'] = span.strip().lower()\n    attrs['char_len'] = end - start\n    if not span:\n        raise ValueError(f'empty {t} span at {{key}}')\n    return dict(key=key, type='{t}', start=start,\n                end=end, text=span, **attrs)\n"
        ));
    }
    s.push_str("PARSERS = {\n");
    for t in ANN_TYPES {
        s.push_str(&format!("    '{t}': parse_{},\n", t.to_lowercase()));
    }
    s.push_str("}\n");
    s.push_str(
        "@ray.remote\ndef parse_pair(ann_path, txt_path):\n    text = open(txt_path).read()\n    entities, events = [], []\n    for line in open(ann_path):\n        m = SPAN_RE.match(line)\n        if m:\n            parser = PARSERS[m.group(2)]\n            entities.append(parser(m.group(1), m.groups()[1:], text))\n            continue\n        m = EVENT_RE.match(line)\n        if m:\n            events.append(dict(key=m.group(1), type=m.group(2),\n                               trigger=m.group(3)))\n        else:\n            events.append(dict(key=line.split()[0], type=None,\n                               trigger=None))\n    return dict(text=text, entities=entities, events=events)\n",
    );
    s.push_str(
        "pairs = list(zip(sorted(glob(ANN_GLOB)), sorted(glob(TXT_GLOB))))\nfutures = [parse_pair.remote(a, t) for a, t in pairs]\nparsed = ray.get(futures)\n",
    );
    s
}

/// DICE notebook, cell 3: filter, join, and sentence linking.
pub fn dice_script_cell_wrangle() -> String {
    String::from(
        "def split_sentences(text):\n    bounds, offset = [], 0\n    for sent in SENT_SPLIT.split(text):\n        start = text.index(sent, offset)\n        bounds.append((start, start + len(sent), sent))\n        offset = start + len(sent)\n    return bounds\n\ndef sentence_of(bounds, pos):\n    for idx, (s, e, sent) in enumerate(bounds):\n        if s <= pos < e:\n            return idx, sent\n    return None, None\n\n@ray.remote\ndef wrangle(doc):\n    bounds = split_sentences(doc['text'])\n    table = {e['key']: e for e in doc['entities']}\n    rows = []\n    for e in doc['entities']:\n        idx, sent = sentence_of(bounds, e['start'])\n        rows.append(dict(kind='T', sent=idx, sentence=sent, **e))\n    triggered = [ev for ev in doc['events'] if ev['trigger'] in table]\n    heldout = [ev for ev in doc['events'] if ev['trigger'] not in table]\n    for ev in triggered:\n        ent = table[ev['trigger']]\n        idx, sent = sentence_of(bounds, ent['start'])\n        rows.append(dict(kind='E', sent=idx, sentence=sent,\n                         text=ent['text'], **ev))\n    for ev in heldout:\n        rows.append(dict(kind='E', sent=None, sentence=None,\n                         text=None, **ev))\n    return rows\n\nwrangled = ray.get([wrangle.remote(doc) for doc in parsed])\n",
    )
}

/// DICE notebook, cell 4: collect and write MACCROBAT-EE.
pub fn dice_script_cell_collect() -> String {
    String::from(
        "records = [row for chunk in wrangled for row in chunk]\nframe = pd.DataFrame.from_records(records)\nframe = frame.sort_values(['doc_id', 'sent', 'key'])\nassert frame['key'].notna().all()\nframe.to_json('maccrobat_ee.jsonl', orient='records',\n              lines=True)\nprint(len(frame), 'annotation rows written')\n",
    )
}

/// Full DICE notebook listing.
pub fn dice_script_listing() -> String {
    [
        dice_script_cell_setup(),
        dice_script_cell_parse(),
        dice_script_cell_wrangle(),
        dice_script_cell_collect(),
    ]
    .join("\n")
}

/// DICE Texera workflow definition: operator configuration blocks plus
/// the UDF bodies.
pub fn dice_workflow_listing() -> String {
    let mut s = String::from(
        "workflow: dice-maccrobat-ee\noperators:\n  - id: annotations-scan\n    type: FileScan\n    glob: maccrobat/*.ann\n    format: brat\n    workers: 4\n  - id: sentences-scan\n    type: FileScan\n    glob: maccrobat/*.txt\n    format: sentence-split\n    workers: 1\n",
    );
    for t in ANN_TYPES {
        s.push_str(&format!(
            "  - id: parse-{}\n    type: PythonUDF\n    code: |\n      def parse(row):\n        if row.type != '{t}':\n          return None\n        row.normalized = row.text.strip().lower()\n        return row\n",
            t.to_lowercase()
        ));
    }
    s.push_str(
        "  - id: entities\n    type: Filter\n    predicate: kind == 'T'\n  - id: triggered-events\n    type: Filter\n    predicate: kind == 'E' and trigger is not null\n  - id: heldout-events\n    type: Filter\n    predicate: kind == 'E' and trigger is null\n  - id: resolve-triggers\n    type: HashJoin\n    build: [doc_id, key]\n    probe: [doc_id, trigger]\n    partition: hash(doc_id)\n  - id: normalize-entities\n    type: Projection\n    columns: [doc_id, key, kind, ann_type, start, text]\n  - id: normalize-events\n    type: Projection\n    columns: [doc_id, key, kind, ann_type, start_r, text_r]\n  - id: normalize-heldout\n    type: Projection\n    columns: [doc_id, key, kind, ann_type, null, null]\n  - id: union\n    type: Union\n    ports: 3\n  - id: link-sentences\n    type: PythonUDF\n    blocking_ports: [0]\n    code: |\n      index = defaultdict(list)\n      def on_sentence(row):\n        index[row.doc_id].append((row.sent_idx, row.start,\n                                  row.end, row.sentence))\n      def on_annotation(row):\n        if row.pos is None:\n          return row.with_sentence(None, None)\n        for idx, s, e, sent in index[row.doc_id]:\n          if s <= row.pos < e:\n            return row.with_sentence(idx, sent)\n        raise KeyError(row.key)\n  - id: results\n    type: ViewResults\nlinks:\n  - annotations-scan -> parse: round-robin\n  - parse -> entities: round-robin\n  - parse -> triggered-events: round-robin\n  - parse -> heldout-events: round-robin\n  - entities -> resolve-triggers.0: hash(doc_id)\n  - triggered-events -> resolve-triggers.1: hash(doc_id)\n  - entities -> normalize-entities: round-robin\n  - resolve-triggers -> normalize-events: round-robin\n  - heldout-events -> normalize-heldout: round-robin\n  - normalize-entities -> union.0: round-robin\n  - normalize-events -> union.1: round-robin\n  - normalize-heldout -> union.2: round-robin\n  - sentences-scan -> link-sentences.0: broadcast\n  - union -> link-sentences.1: round-robin\n  - link-sentences -> results: single\n",
    );
    s
}

// ---------------------------------------------------------------------
// WEF
// ---------------------------------------------------------------------

/// WEF notebook listing (short: training loops are library calls).
pub fn wef_script_listing() -> String {
    let mut s = String::from(
        "import torch\nimport pandas as pd\nfrom transformers import AutoModel, AutoTokenizer\nfrom torch.utils.data import DataLoader\ntweets = pd.read_csv('wildfire_tweets.csv')\nFRAMINGS = ['climate_link', 'climate_action',\n            'other_adversity', 'not_relevant']\ntokenizer = AutoTokenizer.from_pretrained('bert-base-uncased')\nencodings = tokenizer(list(tweets.text), truncation=True,\n                      padding=True, return_tensors='pt')\n",
    );
    for f in [
        "climate_link",
        "climate_action",
        "other_adversity",
        "not_relevant",
    ] {
        s.push_str(&format!(
            "model_{f} = AutoModel.from_pretrained('bert-base-uncased')\nlabels_{f} = tweets.framings.str.contains('{f}').astype(int)\nloader_{f} = DataLoader(list(zip(encodings.input_ids, labels_{f})),\n                        batch_size=16, shuffle=True)\nfor epoch in range(EPOCHS):\n    for batch, labels in loader_{f}:\n        loss = model_{f}(batch, labels=labels).loss\n        loss.backward()\n        optimizer.step()\n        optimizer.zero_grad()\n",
        ));
    }
    s.push_str(
        "EPOCHS = 3\noptimizer = torch.optim.AdamW(model_climate_link.parameters())\ndef evaluate(model, encodings, labels):\n    model.eval()\n    with torch.no_grad():\n        logits = model(encodings.input_ids).logits\n    preds = (torch.sigmoid(logits) > 0.5).int()\n    tp = int(((preds == 1) & (labels == 1)).sum())\n    fp = int(((preds == 1) & (labels == 0)).sum())\n    fn = int(((preds == 0) & (labels == 1)).sum())\n    precision = tp / max(tp + fp, 1)\n    recall = tp / max(tp + fn, 1)\n    return 2 * precision * recall / max(precision + recall, 1e-9)\nscores = {f: evaluate(globals()[f'model_{f}'], encodings,\n                      globals()[f'labels_{f}'])\n          for f in FRAMINGS}\nframe = pd.Series(scores).sort_values(ascending=False)\nframe.to_csv('wef_f1.csv')\nprint(frame)\n",
    );
    s
}

/// WEF Texera workflow listing.
pub fn wef_workflow_listing() -> String {
    let mut s = String::from(
        "workflow: wef-framing-ensemble\noperators:\n  - id: tweets-scan\n    type: CSVScan\n    path: wildfire_tweets.csv\n    workers: 1\n  - id: tokenize\n    type: PythonUDF\n    code: |\n      def tokenize(row):\n        row.tokens = tokenizer(row.text, truncation=True)\n        return row\n",
    );
    for f in [
        "climate_link",
        "climate_action",
        "other_adversity",
        "not_relevant",
    ] {
        s.push_str(&format!(
            "  - id: train-{f}\n    type: PythonUDF\n    blocking_ports: [0]\n    code: |\n      buffer = []\n      def on_tuple(row):\n        buffer.append((row.tokens, '{f}' in row.framings))\n      def on_finish():\n        model = finetune_bert(buffer, epochs=3)\n        emit(evaluate(model, buffer))\n"
        ));
    }
    s.push_str(
        "  - id: merge-scores\n    type: Union\n    ports: 4\n  - id: results\n    type: ViewResults\nlinks:\n  - tweets-scan -> tokenize: round-robin\n  - tokenize -> train-climate_link: broadcast\n  - tokenize -> train-climate_action: broadcast\n  - tokenize -> train-other_adversity: broadcast\n  - tokenize -> train-not_relevant: broadcast\n  - train-* -> merge-scores: single\n  - merge-scores -> results: single\n",
    );
    s
}

// ---------------------------------------------------------------------
// GOTTA
// ---------------------------------------------------------------------

/// GOTTA notebook listing.
pub fn gotta_script_listing() -> String {
    String::from(
        "import ray\nimport torch\nfrom transformers import BartForConditionalGeneration, BartTokenizer\nfrom torch.utils.data import DataLoader, Dataset\nray.init(address='auto')\nclass TextDataset(Dataset):\n    def __init__(self, rows, tokenizer, max_len=512):\n        self.rows = rows\n        self.tokenizer = tokenizer\n        self.max_len = max_len\n    def __len__(self):\n        return len(self.rows)\n    def __getitem__(self, i):\n        prompt, answer = self.rows[i]\n        enc = self.tokenizer(prompt, truncation=True,\n                             max_length=self.max_len)\n        return enc, answer\nmodel = BartForConditionalGeneration.from_pretrained('gotta-bart')\ntokenizer = BartTokenizer.from_pretrained('gotta-bart')\nmodel_ref = ray.put(model)\ndata = load_paragraphs('fsqa.jsonl')\nquestion_answers = build_cloze_questions(data)\nrows = []\nfor context in data:\n    for qa in question_answers[context.id]:\n        question = qa['question']\n        answers = qa['answers']\n        answer = f'Question: {question} Answers: {answers}'\n        prompt = f'Question: {question} Context: {context.text}'\n        rows.append((prompt, answer))\n@ray.remote(num_cpus=1)\ndef infer(chunk, model_ref):\n    model = ray.get(model_ref)\n    dataset = TextDataset(chunk, tokenizer)\n    val_params = dict(batch_size=8, shuffle=False,\n                      num_workers=0)\n    loader = DataLoader(dataset, **val_params)\n    preds = []\n    for enc, answer in loader:\n        out = model.generate(**enc)\n        preds.append((tokenizer.decode(out[0]), answer))\n    return preds\nchunks = partition(rows, by='paragraph')\npreds = ray.get([infer.remote(c, model_ref) for c in chunks])\nflat = [p for chunk in preds for p in chunk]\ndef normalize(text):\n    text = text.lower().strip()\n    for tok in ['question:', 'answers:', '<s>', '</s>']:\n        text = text.replace(tok, ' ')\n    return ' '.join(text.split())\ndef exact_match(preds, golds):\n    hits = 0\n    for p, g in zip(preds, golds):\n        if normalize(p) == normalize(g):\n            hits += 1\n    return hits / len(preds)\nem = exact_match([p for p, _ in flat], [a for _, a in flat])\nper_paragraph = {}\nfor (p, a), row in zip(flat, rows):\n    pid = row_paragraph_id(row)\n    per_paragraph.setdefault(pid, []).append(\n        normalize(p) == normalize(a))\nworst = sorted(per_paragraph.items(),\n               key=lambda kv: sum(kv[1]) / len(kv[1]))[:5]\nprint(f'exact match: {em:.3f}')\nfor pid, flags in worst:\n    print(pid, f'{sum(flags) / len(flags):.2f}')\n",
    )
}

/// GOTTA Texera workflow listing.
pub fn gotta_workflow_listing() -> String {
    String::from(
        "workflow: gotta-fsqa-inference\noperators:\n  - id: paragraphs-scan\n    type: JSONLScan\n    path: fsqa.jsonl\n    workers: 1\n  - id: build-questions\n    type: PythonUDF\n    code: |\n      def flat_map(row):\n        for qa in cloze_questions(row):\n          question = qa['question']\n          answers = qa['answers']\n          prompt = f'Question: {question} Context: {row.text}'\n          yield dict(paragraph_id=row.id, prompt=prompt,\n                     answer=qa['answer'])\n  - id: bart-generate\n    type: PythonUDF\n    workers: 1\n    init: |\n      model = BartForConditionalGeneration.from_pretrained(\n          'gotta-bart')\n      # Texera ships the checkpoint to each worker once; the\n      # kernel may use every core on the machine.\n    code: |\n      def on_tuple(row):\n        out = model.generate(tokenize(row.prompt))\n        row.prediction = decode(out)\n        return row\n  - id: evaluate\n    type: PythonUDF\n    code: |\n      def normalize(text):\n        text = text.lower().strip()\n        for tok in ['question:', 'answers:']:\n          text = text.replace(tok, ' ')\n        return ' '.join(text.split())\n      def on_tuple(row):\n        row.correct = (normalize(row.prediction) ==\n                       normalize(row.answer))\n        return row\n  - id: aggregate-em\n    type: Aggregate\n    group_by: [paragraph_id]\n    aggregations:\n      - avg(correct) as exact_match\n      - count() as questions\n  - id: results\n    type: ViewResults\nlinks:\n  - paragraphs-scan -> build-questions: round-robin\n  - build-questions -> bart-generate: round-robin\n  - bart-generate -> evaluate: round-robin\n  - evaluate -> aggregate-em: hash(paragraph_id)\n  - aggregate-em -> results: single\n",
    )
}

// ---------------------------------------------------------------------
// KGE
// ---------------------------------------------------------------------

/// KGE notebook listing.
pub fn kge_script_listing() -> String {
    String::from(
        "import argparse\nimport json\nimport time\nimport ray\nt0 = time.time()\nimport numpy as np\nimport pandas as pd\nfrom heapq import heappush, heappushpop\nparser = argparse.ArgumentParser()\nparser.add_argument('--candidates', default='candidates.csv')\nparser.add_argument('--embeddings', default='kge_embeddings.npy')\nparser.add_argument('--entities', default='entity_index.parquet')\nparser.add_argument('--user-id', type=int, required=True)\nparser.add_argument('--top-k', type=int, default=10)\nparser.add_argument('--num-workers', type=int, default=1)\nargs = parser.parse_args()\nray.init(address='auto')\nproducts = pd.read_csv(args.candidates)\nassert {'id', 'name', 'category', 'in_stock'} <= set(products)\nproducts = products[products.in_stock]\nprint(len(products), 'candidates after stock filter')\nembeddings = np.load(args.embeddings, mmap_mode=None)\nentity_index = pd.read_parquet(args.entities)\nrow_of = dict(zip(entity_index.id, entity_index.embedding_row))\nmissing = [i for i in products.id if i not in row_of]\nif missing:\n    raise KeyError(f'{len(missing)} products lack embeddings')\nuser_vec = embeddings[row_of[args.user_id]]\nrelation_vec = embeddings[row_of[PURCHASE_RELATION]]\ntarget = user_vec + relation_vec\nemb_ref = ray.put(embeddings)\nframe = products.merge(entity_index, on='id', how='inner')\n@ray.remote(num_cpus=1)\ndef score_chunk(chunk, emb_ref):\n    emb = ray.get(emb_ref)\n    vecs = emb[chunk.embedding_row.values]\n    dist = np.linalg.norm(target - vecs, axis=1)\n    chunk = chunk.assign(score=-dist)\n    return chunk[['id', 'score']]\nchunks = np.array_split(frame, args.num_workers)\nfutures = [score_chunk.remote(c, emb_ref) for c in chunks]\nscored = pd.concat(ray.get(futures))\nheap = []\nfor row in scored.itertuples():\n    item = (row.score, -row.id)\n    if len(heap) < args.top_k:\n        heappush(heap, item)\n    else:\n        heappushpop(heap, item)\ntop = sorted(heap, reverse=True)\nranked = pd.DataFrame(\n    [(-i, s) for s, i in top], columns=['id', 'score'])\nnames = ranked.merge(entity_index[['id', 'name']], on='id')\nnames['rank'] = range(1, len(names) + 1)\nnames.to_csv('predicted_purchases.csv', index=False)\nfor row in names.itertuples():\n    print(row.rank, row.name, f'{row.score:.4f}')\ndef sanity_check(names):\n    assert names['rank'].is_monotonic_increasing\n    assert names.score.le(0).all()\n    assert names.id.is_unique\n    return True\nsanity_check(names)\nelapsed = time.time() - t0\nsummary = dict(user=args.user_id, candidates=len(products),\n               returned=len(names), seconds=round(elapsed, 2))\nwith open('kge_run_summary.json', 'w') as f:\n    json.dump(summary, f)\nprint(json.dumps(summary))\n",
    )
}

/// KGE Texera workflow listing (the Python-operator version; the Scala
/// swap replaces `embedding-join` with a nine-operator Scala pipeline).
pub fn kge_workflow_listing() -> String {
    String::from(
        "workflow: kge-purchase-prediction\noperators:\n  - id: candidates-scan\n    type: CSVScan\n    path: candidates.csv\n    workers: 4\n  - id: embedding-scan\n    type: ParquetScan\n    path: kge_embeddings.parquet\n    workers: 1\n  - id: stock-filter\n    type: Filter\n    predicate: in_stock == true\n  - id: embedding-join\n    type: PythonUDF\n    blocking_ports: [0]\n    code: |\n      table = {}\n      def on_embedding(row):\n        table[row.id] = row.vector\n      def on_candidate(row):\n        row.vector = table[row.id]\n        return row\n  - id: kge-score\n    type: PythonUDF\n    code: |\n      target = user_vec + relation_vec\n      def on_tuple(row):\n        row.score = -np.linalg.norm(target - row.vector)\n        return row\n  - id: top-k\n    type: PythonUDF\n    workers: 1\n    blocking_ports: [0]\n    code: |\n      heap = []\n      def on_tuple(row):\n        heappush_bounded(heap, (row.score, -row.id), TOP_K)\n      def on_finish():\n        for rank, row in enumerate(sorted(heap, reverse=True), 1):\n          emit(rank=rank, **row)\n  - id: reverse-lookup\n    type: PythonUDF\n    blocking_ports: [0]\n    code: |\n      names = {}\n      def on_name(row):\n        names[row.id] = row.name\n      def on_ranked(row):\n        row.name = names[row.id]\n        return row\n  - id: results\n    type: ViewResults\nlinks:\n  - candidates-scan -> stock-filter: round-robin\n  - embedding-scan -> embedding-join.0: broadcast\n  - stock-filter -> embedding-join.1: hash(id)\n  - embedding-join -> kge-score: round-robin\n  - kge-score -> top-k: single\n  - candidates-scan -> reverse-lookup.0: broadcast\n  - top-k -> reverse-lookup.1: single\n  - reverse-lookup -> results: single\nalternatives:\n  # Swap for Table I: replace embedding-join with the built-in\n  # Scala join pipeline (nine operators, same logic).\n  - id: project-build-keys\n    type: ScalaProjection\n    columns: [id, vector]\n  - id: partition-build\n    type: ScalaHashPartition\n    keys: [id]\n  - id: build-table\n    type: ScalaHashBuild\n    keys: [id]\n  - id: project-probe-keys\n    type: ScalaProjection\n    columns: [id, name, category]\n  - id: partition-probe\n    type: ScalaHashPartition\n    keys: [id]\n  - id: probe-table\n    type: ScalaHashProbe\n    keys: [id]\n  - id: merge-columns\n    type: ScalaMerge\n    suffix: _r\n  - id: validate-join\n    type: ScalaFilter\n    predicate: vector != null\n  - id: to-python\n    type: ArrowExchange\n    target: kge-score\n",
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Fig. 12a paper anchors: (task, script LoC, workflow LoC).
    const PAPER: [(&str, usize, usize); 4] = [
        ("DICE", 377, 215),
        ("WEF", 68, 62),
        ("GOTTA", 120, 105),
        ("KGE", 128, 134),
    ];

    fn measured(task: &str) -> (usize, usize) {
        match task {
            "DICE" => (
                count_loc(&dice_script_listing()),
                count_loc(&dice_workflow_listing()),
            ),
            "WEF" => (
                count_loc(&wef_script_listing()),
                count_loc(&wef_workflow_listing()),
            ),
            "GOTTA" => (
                count_loc(&gotta_script_listing()),
                count_loc(&gotta_workflow_listing()),
            ),
            "KGE" => (
                count_loc(&kge_script_listing()),
                count_loc(&kge_workflow_listing()),
            ),
            other => panic!("unknown task {other}"),
        }
    }

    #[test]
    fn loc_ordering_matches_fig12a() {
        // The paper's qualitative result: the workflow needs fewer lines
        // for DICE/WEF/GOTTA, slightly more for KGE.
        for (task, paper_script, paper_wf) in PAPER {
            let (script, wf) = measured(task);
            assert_eq!(
                script > wf,
                paper_script > paper_wf,
                "{task}: measured {script}/{wf}, paper {paper_script}/{paper_wf}"
            );
        }
    }

    #[test]
    fn loc_magnitudes_are_in_paper_range() {
        for (task, paper_script, paper_wf) in PAPER {
            let (script, wf) = measured(task);
            let close = |m: usize, p: usize| {
                let ratio = m as f64 / p as f64;
                (0.5..2.0).contains(&ratio)
            };
            assert!(
                close(script, paper_script),
                "{task} script {script} vs {paper_script}"
            );
            assert!(close(wf, paper_wf), "{task} workflow {wf} vs {paper_wf}");
        }
    }

    #[test]
    fn dice_is_the_longest_implementation() {
        let (dice_s, _) = measured("DICE");
        for task in ["WEF", "GOTTA", "KGE"] {
            let (s, w) = measured(task);
            assert!(dice_s > s && dice_s > w);
        }
    }

    #[test]
    fn count_loc_ignores_comments_and_blanks() {
        assert_eq!(count_loc("# comment\n\nx = 1\n  y = 2"), 2);
    }
}
